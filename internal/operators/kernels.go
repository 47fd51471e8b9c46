// Vectorized predicate kernels: compiled column-vs-constant conjuncts
// evaluated over a batch's selection vector without per-row closure
// dispatch, plus the page veto that runs on the page image's zone
// summary before any version is judged. The kernels replicate the
// boxed predicate's semantics EXACTLY — NULL fails every comparison
// (even !=), numeric kinds compare through their float64 image (int64
// precision loss included), NaN compares equal to every numeric, mixed
// string/number order by kind tag — by reducing each operator to three
// precomputed pass bits indexed by the sign of storage.Compare. Byte-identical
// results with the boxed path are a hard invariant, enforced by the
// determinism matrix in the query package.
package operators

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"github.com/adm-project/adm/internal/storage"
)

// KernelOp is a compiled predicate operator: the query layer's
// comparison set plus the SQL null tests.
type KernelOp int

// Kernel operators. The comparison six mirror the query layer's CmpOp
// in order; the null tests never consult the literal.
const (
	KernEQ KernelOp = iota
	KernNE
	KernLT
	KernGT
	KernLE
	KernGE
	KernIsNull
	KernNotNull
)

// passBits expands a comparison operator into its acceptance of the
// three Compare outcomes: (cmp<0, cmp==0, cmp>0). Exactly CmpOp.Eval,
// precomputed.
func (o KernelOp) passBits() (lt, eq, gt bool) {
	switch o {
	case KernEQ:
		return false, true, false
	case KernNE:
		return true, false, true
	case KernLT:
		return true, false, false
	case KernGT:
		return false, false, true
	case KernLE:
		return true, true, false
	case KernGE:
		return false, true, true
	}
	return false, false, false
}

// ColPred is one compilable conjunct: column Col of the scanned tuple,
// compared against the constant Lit. Name is the EXPLAIN rendering;
// Cost feeds the eddy rank (uniform 1 when unknown).
type ColPred struct {
	Col  int
	Op   KernelOp
	Lit  storage.Value
	Name string
	Cost float64
}

// compiledPred is a ColPred with the literal pre-classified and the
// operator expanded to pass bits, plus windowless observed-selectivity
// counters: shared across scan workers, hence atomic, and written only
// when a worker publishes its tallies (kernelPass). idx is the
// conjunct's compile position, which indexes those tallies.
type compiledPred struct {
	ColPred
	passLT, passEQ, passGT bool
	// pass is the pass bits as a table indexed by
	// b(f<lit) | b(f>lit)<<1: EQ (NaN included), LT, GT.
	pass    [4]uint8
	idx     uint16
	litNull bool
	litNum  bool // AsFloat ok
	litNaN  bool
	litStr  bool
	litF    float64
	litS    string

	evals  atomic.Int64
	passes atomic.Int64
}

func compilePred(p ColPred) *compiledPred {
	c := &compiledPred{ColPred: p}
	if c.Cost <= 0 {
		c.Cost = 1
	}
	c.passLT, c.passEQ, c.passGT = p.Op.passBits()
	c.pass = [4]uint8{uint8(b2i(c.passEQ)), uint8(b2i(c.passLT)), uint8(b2i(c.passGT))}
	c.litNull = p.Lit.Kind == storage.KindNull
	if f, ok := p.Lit.AsFloat(); ok {
		c.litNum, c.litF, c.litNaN = true, f, math.IsNaN(f)
	}
	if p.Lit.Kind == storage.KindString {
		c.litStr, c.litS = true, p.Lit.Str
	}
	return c
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// slowKeep is the reference row evaluation: boxed semantics verbatim
// (NULL fails, then pass bit by Compare sign). The typed loops in
// filterSel shortcut the common kind pairs and fall back here for
// cross-kind rows, so every row evaluates identically to the boxed
// predicate by construction.
func (p *compiledPred) slowKeep(v storage.Value) bool {
	switch p.Op {
	case KernIsNull:
		return v.Kind == storage.KindNull
	case KernNotNull:
		return v.Kind != storage.KindNull
	}
	if v.Kind == storage.KindNull {
		return false
	}
	cmp := storage.Compare(v, p.Lit)
	switch {
	case cmp < 0:
		return p.passLT
	case cmp > 0:
		return p.passGT
	}
	return p.passEQ
}

// filterSel compacts sel to the rows of img passing this predicate.
// A numeric literal reads the column's vector (storage.ColVec): over an
// all-numeric column a branch-free compare-and-compact loop, else a
// switch on each row's class, its other rows (strings) going to
// slowKeep on the tuple. NaN rows fall through both inequalities into
// the EQ slot, exactly as Compare returns 0 for them. String literals
// and the null tests compare the tuples' values directly.
func (p *compiledPred) filterSel(img storage.PageImage, sel []int32) []int32 {
	out := sel[:0]
	col := p.Col
	rows := img.Rows()
	switch {
	case p.Op == KernIsNull:
		for _, i := range sel {
			if rows[i][col].Kind == storage.KindNull {
				out = append(out, i)
			}
		}
	case p.Op == KernNotNull:
		for _, i := range sel {
			if rows[i][col].Kind != storage.KindNull {
				out = append(out, i)
			}
		}
	case p.litNum:
		v := img.Col(col)
		if v.AllNum {
			return p.numSel(v.F, sel)
		}
		lf := p.litF
		for _, i := range sel {
			var keep bool
			switch v.Class[i] {
			case storage.ClassNum:
				f := v.F[i]
				keep = p.pass[(b2i(f < lf)|b2i(f > lf)<<1)&3] != 0
			case storage.ClassOther:
				keep = p.slowKeep(rows[i][col])
			}
			if keep {
				out = append(out, i)
			}
		}
	case p.litStr:
		ls := p.litS
		for _, i := range sel {
			v := &rows[i][col]
			var keep bool
			switch v.Kind {
			case storage.KindString:
				switch {
				case v.Str < ls:
					keep = p.passLT
				case v.Str > ls:
					keep = p.passGT
				default:
					keep = p.passEQ
				}
			case storage.KindNull:
				keep = false
			default:
				keep = p.slowKeep(*v)
			}
			if keep {
				out = append(out, i)
			}
		}
	default: // NULL literal: every non-null row compares +1
		for _, i := range sel {
			if v := &rows[i][col]; v.Kind != storage.KindNull && p.passGT {
				out = append(out, i)
			}
		}
	}
	return out
}

// numSel is filterSel over an all-numeric column: every position is
// written, and the pass table decides whether the write is kept.
func (p *compiledPred) numSel(f []float64, sel []int32) []int32 {
	pass, lf := &p.pass, p.litF
	n := 0
	for _, i := range sel {
		x := f[i]
		sel[n] = i
		n += int(pass[(b2i(x < lf)|b2i(x > lf)<<1)&3])
	}
	return sel[:n]
}

// selectivity is the predicate's observed pass rate (0.5 uninformed
// prior, as the eddy uses before its first window).
func (p *compiledPred) selectivity() float64 {
	e := p.evals.Load()
	if e == 0 {
		return 0.5
	}
	return float64(p.passes.Load()) / float64(e)
}

// mayMatch decides whether any row summarised by zones could pass this
// predicate. Missing or unmodelled information always answers true;
// false is returned only when NO value category present on the page
// can produce a passing Compare sign.
func (p *compiledPred) mayMatch(zones []storage.ColZone) bool {
	if p.Col >= len(zones) {
		return true
	}
	z := &zones[p.Col]
	if z.HasOther {
		return true
	}
	nonNull := z.HasNum || z.HasNaN || z.HasStr
	switch p.Op {
	case KernIsNull:
		return z.HasNull
	case KernNotNull:
		return nonNull
	}
	if p.litNull {
		// Non-null row vs NULL literal compares +1; NULL rows fail.
		return p.passGT && nonNull
	}
	if p.litNum {
		if p.litNaN {
			// Any numeric (or NaN) row compares 0 against a NaN literal.
			if p.passEQ && (z.HasNum || z.HasNaN) {
				return true
			}
		} else {
			if z.HasNum {
				if p.passLT && z.MinF < p.litF {
					return true
				}
				if p.passGT && z.MaxF > p.litF {
					return true
				}
				if p.passEQ && z.MinF <= p.litF && z.MaxF >= p.litF {
					return true
				}
			}
			if z.HasNaN && p.passEQ { // NaN row vs finite literal: 0
				return true
			}
		}
		// String rows against a numeric literal order by kind tag:
		// above int/float, below bool.
		if z.HasStr {
			if p.Lit.Kind == storage.KindBool {
				return p.passLT
			}
			return p.passGT
		}
		return false
	}
	// String literal.
	if z.HasStr {
		if p.passLT && z.MinS < p.litS {
			return true
		}
		if p.passGT && z.MaxS > p.litS {
			return true
		}
		if p.passEQ && z.MinS <= p.litS && z.MaxS >= p.litS {
			return true
		}
	}
	if (z.HasNum || z.HasNaN) && p.passLT { // int/float rows order below strings
		return true
	}
	if z.HasBool && p.passGT { // bool rows order above strings
		return true
	}
	return false
}

// ScanStats counts a scan's page-level pruning decisions, shared by
// every worker of the scan and read by EXPLAIN after execution.
type ScanStats struct {
	Pruned  atomic.Int64
	Scanned atomic.Int64
}

// reorderEvery is the adaptation cadence: each worker publishes its
// selectivity tallies, and the kernel re-ranks its conjuncts from them,
// every reorderEvery pages the worker filters.
const reorderEvery = 32

// FilterKernel is a compiled conjunction a page read runs over the
// page image (storage.RowFilter, through each worker's kernelPass).
// The conjunct order adapts continuously: the conjuncts re-sort by the
// eddy rank cost/(1-selectivity) whenever a worker publishes its
// tallies, so the cheapest most-selective kernel runs first.
// Reordering never changes the surviving row set (conjunction is
// commutative and the predicates are pure), so results stay
// byte-identical no matter when adaptation fires. Safe for concurrent
// use by any number of scan workers.
type FilterKernel struct {
	preds []*compiledPred
	// order is the current routing order (a fresh slice per reorder,
	// swapped atomically; readers never see a partial sort).
	order atomic.Pointer[[]*compiledPred]
	// Boxed, when non-nil, is the residual predicate for conjuncts the
	// kernel set does not cover; it runs after the kernels, on their
	// survivors.
	Boxed Predicate
	// Stats, when non-nil, receives page prune/scan counts.
	Stats *ScanStats
}

// NewFilterKernel compiles the conjunction. boxed may be nil; stats
// may be nil.
func NewFilterKernel(preds []ColPred, boxed Predicate, stats *ScanStats) *FilterKernel {
	k := &FilterKernel{Boxed: boxed, Stats: stats}
	for i, p := range preds {
		c := compilePred(p)
		c.idx = uint16(i)
		k.preds = append(k.preds, c)
	}
	initial := append([]*compiledPred(nil), k.preds...)
	k.order.Store(&initial)
	return k
}

// kernelPass is one worker's run of a FilterKernel, carried on the
// worker's Batch: the storage.RowFilter its page reads call, the
// reused selection vector, and the worker's per-conjunct tallies
// (indexed by compile position), which reach the kernel's shared
// counters only every reorderEvery pages, so the filter loop writes no
// shared memory.
type kernelPass struct {
	k             *FilterKernel
	sel           []int32
	pages         int
	evals, passes []int64
}

// bind points the pass at k, publishing what it tallied for another
// kernel first; a nil k reads unfiltered.
func (w *kernelPass) bind(k *FilterKernel) storage.RowFilter {
	if k == nil {
		return nil
	}
	if w.k != k {
		w.publish()
		w.k, w.pages = k, 0
		w.evals = append(w.evals[:0], make([]int64, len(k.preds))...)
		w.passes = append(w.passes[:0], make([]int64, len(k.preds))...)
	}
	return w
}

// MayMatch implements storage.RowFilter: the kernel's veto over the
// page image's zone summary, counted as one pruned or scanned page.
func (w *kernelPass) MayMatch(img storage.PageImage) bool {
	ok := w.k.MayMatchPage(img.Zones())
	if st := w.k.Stats; st != nil {
		if ok {
			st.Scanned.Add(1)
		} else {
			st.Pruned.Add(1)
		}
	}
	return ok
}

// Sel implements storage.RowFilter: the empty selection vector.
func (w *kernelPass) Sel() []int32 { return w.sel[:0] }

// Filter implements storage.RowFilter: each conjunct in the kernel's
// current order narrows sel, then the boxed residual does. Steady
// state allocates nothing: the selection vector stays on the pass.
func (w *kernelPass) Filter(img storage.PageImage, sel []int32) []int32 {
	k := w.k
	for _, p := range *k.order.Load() {
		if len(sel) == 0 {
			break
		}
		w.evals[p.idx] += int64(len(sel))
		sel = p.filterSel(img, sel)
		w.passes[p.idx] += int64(len(sel))
	}
	if k.Boxed != nil {
		rows, kept := img.Rows(), sel[:0]
		for _, i := range sel {
			if k.Boxed(rows[i]) {
				kept = append(kept, i)
			}
		}
		sel = kept
	}
	w.sel = sel[:0] // retain capacity
	if w.pages++; w.pages%reorderEvery == 0 {
		w.publish()
		if len(k.preds) > 1 {
			k.reorder()
		}
	}
	return sel
}

// publish adds the pass's tallies to its kernel's counters and zeroes
// them.
func (w *kernelPass) publish() {
	if w.k == nil {
		return
	}
	for _, p := range w.k.preds {
		if e := w.evals[p.idx]; e > 0 {
			p.evals.Add(e)
			p.passes.Add(w.passes[p.idx])
			w.evals[p.idx], w.passes[p.idx] = 0, 0
		}
	}
}

// reorder installs a fresh conjunct order ranked by observed
// selectivity (see FilterRank), unless the current one already is.
// Stable sort keeps ties deterministic.
func (k *FilterKernel) reorder() {
	byRank := func(a, b *compiledPred) int {
		return cmp.Compare(FilterRank(a.Cost, a.selectivity()), FilterRank(b.Cost, b.selectivity()))
	}
	if slices.IsSortedFunc(*k.order.Load(), byRank) {
		return
	}
	next := slices.Clone(k.preds)
	slices.SortStableFunc(next, byRank)
	k.order.Store(&next)
}

// MayMatchPage decides whether a page may hold a passing row: nil
// zones (no summary) must be read; an empty non-nil summary is a
// rowless page; otherwise every conjunct gets a veto. The boxed
// residual never vetoes — it sees every surviving page.
func (k *FilterKernel) MayMatchPage(zones []storage.ColZone) bool {
	if zones == nil {
		return true
	}
	if len(zones) == 0 {
		return false // page holds no rows at all
	}
	for _, p := range k.preds {
		if !p.mayMatch(zones) {
			return false
		}
	}
	return true
}

// Describe renders the conjunction for EXPLAIN: each kernel-compiled
// conjunct by name, in compile (not adapted) order.
func (k *FilterKernel) Describe() string {
	s := "kernel["
	for i, p := range k.preds {
		if i > 0 {
			s += " AND "
		}
		s += p.Name
	}
	return s + "]"
}

// PruneSummary renders the page-prune counters ("pruned=3/12"); empty
// when the kernel collects no stats.
func (k *FilterKernel) PruneSummary() string {
	if k.Stats == nil {
		return ""
	}
	pruned := k.Stats.Pruned.Load()
	return fmt.Sprintf("pruned=%d/%d", pruned, pruned+k.Stats.Scanned.Load())
}
