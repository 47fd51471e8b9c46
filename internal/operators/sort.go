// Sorting and Top-K selection across workers. ORDER BY was the
// last operator that collapsed the morsel-parallel pipeline back into
// one thread: the old Sort drained its whole input and ran
// sort.SliceStable with a storage.Compare closure — two Value structs
// copied per comparison, O(n log n) interface dispatches, one core.
//
// The path here is run formation + tournament merge:
//
//   - each worker claims batches from the shared source, extracts the
//     sort key of every tuple once into a typed key column (sortKey:
//     float image / string / class tag, mirroring storage.Compare
//     semantics except that NaN takes a fixed position after all other
//     numbers — Compare's NaN-equals-everything is non-transitive and
//     cannot drive a deterministic sort), and sorts its accumulated
//     run with plain float/string comparisons;
//   - a k-way loser-tree (tournament) merge lays the worker runs out
//     in global order in one presized slice of tuple headers (the
//     tuples themselves are not copied) — each emitted tuple costs
//     ⌈log₂ k⌉ comparisons up the tree;
//   - ORDER BY ... LIMIT k runs as a bounded Top-K heap instead: each
//     worker keeps only its k best rows, and the barrier merges the
//     ≤ k·W candidates, so LIMIT 10 over a million rows never
//     materialises the table.
//
// Determinism: sort keys compare like storage.Compare (NaN placement
// aside, see compareKeys), and ties break by a strict total order
// over the contents of the tie columns — the whole tuple, or the ones
// the caller keeps (sortOrder) — not by input position. Worker runs
// form from dynamically claimed morsels, so positional (stable-sort)
// tie-breaks cannot be reproduced across worker counts; a content
// tie-break can — rows that still tie under it are byte-identical in
// every column the caller keeps, so every schedule, batch size and
// worker count emits the same sequence.
package operators

import (
	"math"
	"sort"

	"github.com/adm-project/adm/internal/storage"
)

// ---------------------------------------------------------------------------
// Typed sort keys.

// Key classes, ordered as storage.Compare orders them: NULLs first,
// then one ordered band per comparable class.
const (
	classNull = iota
	classNum  // int / float / bool, compared by float image
	classStr
)

// sortKey is the typed image of one sort-column value, extracted once
// per tuple so the O(n log n) comparisons run on machine types instead
// of storage.Compare's interface walk over full Value structs.
type sortKey struct {
	class uint8
	kind  storage.ValueKind // original kind tag: the cross-class fallback order
	nan   bool              // NaN numeric: sorts after every other number
	f     float64
	s     string
}

// sortKeyOf extracts the key; it mirrors storage.Compare's coercions
// (mixed numeric kinds and bools compare by float image).
func sortKeyOf(v storage.Value) sortKey {
	if f, ok := v.AsFloat(); ok {
		return sortKey{class: classNum, kind: v.Kind, f: f, nan: math.IsNaN(f)}
	}
	if v.Kind == storage.KindNull {
		return sortKey{class: classNull, kind: v.Kind}
	}
	return sortKey{class: classStr, kind: v.Kind, s: v.Str}
}

// compareKeys orders the extracted keys the way storage.Compare orders
// values — NULLs first, numerics by float image, strings lexically,
// cross-class pairs by kind tag — with one deliberate refinement:
// Compare's three-way float switch makes NaN *equal to every number*,
// which is not transitive (NaN = 1, NaN = 2, yet 1 < 2) and therefore
// cannot drive a deterministic sort. Here NaN gets a fixed total
// position instead: equal to NaN, after every other numeric. For
// NaN-free data the two comparators agree on all pairs.
func compareKeys(a, b sortKey) int {
	if a.class == classNull || b.class == classNull {
		switch {
		case a.class == b.class:
			return 0
		case a.class == classNull:
			return -1
		default:
			return 1
		}
	}
	if a.class == classNum && b.class == classNum {
		if a.nan || b.nan {
			switch {
			case a.nan && b.nan:
				return 0
			case b.nan:
				return -1
			default:
				return 1
			}
		}
		switch {
		case a.f < b.f:
			return -1
		case a.f > b.f:
			return 1
		default:
			return 0
		}
	}
	if a.class == classStr && b.class == classStr {
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		default:
			return 0
		}
	}
	switch {
	case a.kind < b.kind:
		return -1
	case a.kind > b.kind:
		return 1
	}
	return 0
}

// totalValueCompare is a strict total order on value *contents*, used
// only to break sort-key ties: kind tag first, then the payload, with
// floats ordered by their bit image so -0/+0 and NaN payloads occupy
// fixed (if arbitrary) positions. Values that compare equal here are
// indistinguishable, so the order among them never affects output.
func totalValueCompare(a, b storage.Value) int {
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case storage.KindInt:
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
	case storage.KindFloat:
		ab, bb := math.Float64bits(a.Float), math.Float64bits(b.Float)
		switch {
		case ab < bb:
			return -1
		case ab > bb:
			return 1
		}
	case storage.KindString:
		switch {
		case a.Str < b.Str:
			return -1
		case a.Str > b.Str:
			return 1
		}
	case storage.KindBool:
		switch {
		case !a.Bool && b.Bool:
			return -1
		case a.Bool && !b.Bool:
			return 1
		}
	}
	return 0
}

// totalTupleCompare extends totalValueCompare left-to-right across the
// whole row: the tie-break when the caller names no tie columns.
func totalTupleCompare(a, b storage.Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := totalValueCompare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// sortOrder is one ORDER BY: the direction, and the columns whose
// contents break key ties, in order (nil: the whole tuple). A caller
// that keeps only some columns of the sorted tuples names those, so a
// column it drops never orders its output.
type sortOrder struct {
	desc bool
	tie  []int
}

// sortLess is the full ORDER BY ordering: key order (inverted for
// DESC), then the total-order tie-break over o.tie (always ascending —
// any fixed rule works, it only has to be the same everywhere).
func sortLess(ka, kb sortKey, ta, tb storage.Tuple, o sortOrder) bool {
	if c := compareKeys(ka, kb); c != 0 {
		if o.desc {
			return c > 0
		}
		return c < 0
	}
	if o.tie == nil {
		return totalTupleCompare(ta, tb) < 0
	}
	for _, c := range o.tie {
		if r := totalValueCompare(ta[c], tb[c]); r != 0 {
			return r < 0
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Runs: key column + tuple column, sorted together.

// sortRun is one sorted fragment: the extracted key column alongside
// its tuples. Workers accumulate a run from the batches they claim and
// sort it once at source exhaustion.
type sortRun struct {
	keys []sortKey
	tups []storage.Tuple
}

// absorb extracts col's keys for a batch of tuples and appends both
// columns (the once-per-batch key extraction the comparator relies
// on). Tuples are aliased, not copied: batch sources guarantee stable
// values.
func (r *sortRun) absorb(tups []storage.Tuple, col int) {
	for _, t := range tups {
		r.keys = append(r.keys, sortKeyOf(t[col]))
		r.tups = append(r.tups, t)
	}
}

// runSorter adapts a run to sort.Interface under sortLess.
type runSorter struct {
	*sortRun
	o sortOrder
}

func (s runSorter) Len() int { return len(s.keys) }
func (s runSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.tups[i], s.tups[j] = s.tups[j], s.tups[i]
}
func (s runSorter) Less(i, j int) bool {
	return sortLess(s.keys[i], s.keys[j], s.tups[i], s.tups[j], s.o)
}

func (r *sortRun) sort(o sortOrder) { sort.Sort(runSorter{r, o}) }

// ---------------------------------------------------------------------------
// Loser-tree merge.

// loserTree is a k-way tournament merge over sorted runs. node[1:]
// hold the *losers* of each internal match; node[0] is the overall
// winner, so emitting a tuple replays only the ⌈log₂ k⌉ matches on the
// winner's leaf-to-root path instead of re-scanning all k heads.
// Exhausted runs lose every match; equal heads (possible only for rows
// identical in every tie column) fall to the lower run index, keeping
// the merge fully deterministic.
type loserTree struct {
	runs []sortRun
	pos  []int
	node []int
	k    int
	o    sortOrder
}

// newLoserTree builds the initial tournament over runs (empty runs are
// fine; they simply lose every match).
func newLoserTree(runs []sortRun, o sortOrder) *loserTree {
	k := len(runs)
	lt := &loserTree{runs: runs, pos: make([]int, k), k: k, o: o}
	if k == 0 {
		return lt
	}
	lt.node = make([]int, k)
	// Play the full bracket bottom-up once; winners propagate, each
	// internal node records its loser.
	winner := make([]int, 2*k)
	for j := 2*k - 1; j >= k; j-- {
		winner[j] = j - k
	}
	for j := k - 1; j >= 1; j-- {
		a, b := winner[2*j], winner[2*j+1]
		if lt.beats(a, b) {
			winner[j], lt.node[j] = a, b
		} else {
			winner[j], lt.node[j] = b, a
		}
	}
	lt.node[0] = winner[1]
	return lt
}

// beats reports whether run a's head precedes run b's head.
func (lt *loserTree) beats(a, b int) bool {
	ra, rb := &lt.runs[a], &lt.runs[b]
	pa, pb := lt.pos[a], lt.pos[b]
	if pa >= len(ra.tups) {
		return false
	}
	if pb >= len(rb.tups) {
		return true
	}
	if sortLess(ra.keys[pa], rb.keys[pb], ra.tups[pa], rb.tups[pb], lt.o) {
		return true
	}
	if sortLess(rb.keys[pb], ra.keys[pa], rb.tups[pb], ra.tups[pa], lt.o) {
		return false
	}
	return a < b
}

// next pops the globally smallest remaining tuple, replaying the
// winner's path.
func (lt *loserTree) next() (storage.Tuple, bool) {
	if lt.k == 0 {
		return nil, false
	}
	w := lt.node[0]
	if lt.pos[w] >= len(lt.runs[w].tups) {
		return nil, false
	}
	t := lt.runs[w].tups[lt.pos[w]]
	lt.pos[w]++
	for j := (w + lt.k) / 2; j >= 1; j /= 2 {
		if lt.beats(lt.node[j], w) {
			w, lt.node[j] = lt.node[j], w
		}
	}
	lt.node[0] = w
	return t, true
}

// ---------------------------------------------------------------------------
// Parallel sort.

// ParallelSortBatches sorts src by col across cfg workers: each worker
// claims batches, extracts the typed key column, and accumulates one
// local run, sorted at source exhaustion; the runs' loser-tree merge
// is the returned rows. Key ties break on the contents of the tie
// columns (nil: the whole tuple). Output order is fully deterministic
// (see package comment): identical at any worker count and batch size.
func ParallelSortBatches(src BatchSource, col int, desc bool, tie []int, cfg ParallelConfig) ([]storage.Tuple, error) {
	o := sortOrder{desc: desc, tie: tie}
	w := cfg.WorkerCount()
	runs := make([]sortRun, w)
	var fail failFlag
	fanOut(w, &fail, "sort", func(i int) {
		b := GetBatch()
		defer PutBatch(b)
		r := &runs[i]
		for !fail.failed() {
			if cfg.interrupted(&fail) {
				break
			}
			n, err := src.NextBatch(b)
			if err != nil {
				fail.set(err)
				return
			}
			if n == 0 {
				break
			}
			if cfg.charge(&fail, b.Tuples) {
				break
			}
			r.absorb(b.Tuples, col)
		}
		r.sort(o)
		if cfg.OnWorker != nil {
			cfg.OnWorker(i, "sort", len(r.tups))
		}
	})
	if err := fail.err(); err != nil {
		return nil, err
	}
	// Drop empty runs so the tournament only plays live heads.
	live, rows := runs[:0], 0
	for _, r := range runs {
		if len(r.tups) > 0 {
			live, rows = append(live, r), rows+len(r.tups)
		}
	}
	out := make([]storage.Tuple, 0, rows)
	lt := newLoserTree(live, o)
	for t, ok := lt.next(); ok; t, ok = lt.next() {
		out = append(out, t)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Bounded Top-K.

// topKHeap is a bounded binary heap holding the k best rows seen so
// far, worst at the root (so one comparison rejects most candidates
// once the heap is full). Keys ride alongside tuples, extracted once
// per candidate.
type topKHeap struct {
	keys []sortKey
	tups []storage.Tuple
	k    int
	o    sortOrder
}

// after reports whether entry i sorts after entry j (i is worse).
func (h *topKHeap) after(i, j int) bool {
	return sortLess(h.keys[j], h.keys[i], h.tups[j], h.tups[i], h.o)
}

// offer considers one candidate row.
func (h *topKHeap) offer(k sortKey, t storage.Tuple) {
	if len(h.tups) < h.k {
		h.keys = append(h.keys, k)
		h.tups = append(h.tups, t)
		// Sift up.
		for i := len(h.tups) - 1; i > 0; {
			p := (i - 1) / 2
			if !h.after(i, p) {
				break
			}
			h.swap(i, p)
			i = p
		}
		return
	}
	// Full: the candidate must beat the current worst (the root).
	if !sortLess(k, h.keys[0], t, h.tups[0], h.o) {
		return
	}
	h.keys[0], h.tups[0] = k, t
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h.tups) && h.after(l, worst) {
			worst = l
		}
		if r < len(h.tups) && h.after(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		h.swap(i, worst)
		i = worst
	}
}

func (h *topKHeap) swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.tups[i], h.tups[j] = h.tups[j], h.tups[i]
}

// ParallelTopKBatches computes the first k rows of ORDER BY col
// [DESC] over src with cfg workers: each worker keeps a k-bounded
// heap of its own candidates, and the barrier merges the ≤ k·W
// survivors — memory is O(k·W) no matter how large the input, and the
// source is consumed exactly once. The result is sorted and fully
// deterministic (same ordering contract as ParallelSortBatches).
func ParallelTopKBatches(src BatchSource, col int, desc bool, tie []int, k int, cfg ParallelConfig) ([]storage.Tuple, error) {
	if k <= 0 {
		return nil, nil
	}
	o := sortOrder{desc: desc, tie: tie}
	w := cfg.WorkerCount()
	heaps := make([]*topKHeap, w)
	var fail failFlag
	fanOut(w, &fail, "topk", func(i int) {
		b := GetBatch()
		defer PutBatch(b)
		h := &topKHeap{k: k, o: o}
		rows := 0
		for !fail.failed() {
			if cfg.interrupted(&fail) {
				break
			}
			n, err := src.NextBatch(b)
			if err != nil {
				fail.set(err)
				break
			}
			if n == 0 {
				break
			}
			for _, t := range b.Tuples {
				h.offer(sortKeyOf(t[col]), t)
			}
			rows += n
		}
		heaps[i] = h
		if cfg.OnWorker != nil {
			cfg.OnWorker(i, "topk", rows)
		}
	})
	if err := fail.err(); err != nil {
		return nil, err
	}
	var merged sortRun
	for _, h := range heaps {
		merged.keys = append(merged.keys, h.keys...)
		merged.tups = append(merged.tups, h.tups...)
	}
	merged.sort(o)
	if len(merged.tups) > k {
		merged.tups = merged.tups[:k]
	}
	return merged.tups, nil
}
