package operators

import (
	"errors"
	"fmt"

	"github.com/adm-project/adm/internal/storage"
)

func concat(l, r storage.Tuple) storage.Tuple {
	out := make(storage.Tuple, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// IndexNLJoin probes a B-tree index for each outer tuple — the
// operator Scenario 3's re-optimiser injects when it "adds an index
// to one of the tables". It joins one claimed outer batch at a time, in
// place and in the claiming worker, so it is as shareable as its outer
// source.
type IndexNLJoin struct {
	outer    BatchSource
	outerCol int
	index    *storage.BTree
	file     *storage.HeapView
}

// NewIndexNLJoin joins outer.col against the indexed inner file, read
// through file: a snapshot-bound reader hides the versions its
// statement must not see (index entries cover every version). Each
// joined tuple is the outer tuple's columns, then the inner's.
func NewIndexNLJoin(outer BatchSource, outerCol int, index *storage.BTree, file *storage.HeapView) *IndexNLJoin {
	return &IndexNLJoin{outer: outer, outerCol: outerCol, index: index, file: file}
}

// NextBatch implements BatchSource: the joined tuples of the next outer
// batch with any, appended behind its outer tuples, which then make way.
func (j *IndexNLJoin) NextBatch(b *Batch) (int, error) {
	for {
		n, err := j.outer.NextBatch(b)
		if err != nil || n == 0 {
			return 0, err
		}
		for _, o := range b.Tuples[:n] {
			v := o[j.outerCol]
			if v.IsNull() {
				continue
			}
			for _, rid := range j.index.Search(v) {
				inner, err := j.file.Get(rid)
				if errors.Is(err, storage.ErrNotFound) {
					continue // deleted under us, or outside the snapshot
				}
				if err != nil {
					return 0, err
				}
				b.Tuples = append(b.Tuples, concat(o, inner))
			}
		}
		b.Tuples = append(b.Tuples[:0], b.Tuples[n:]...)
		b.RIDs = b.RIDs[:0]
		if len(b.Tuples) > 0 {
			return len(b.Tuples), nil
		}
	}
}

// ---------------------------------------------------------------------------
// Aggregation.

// AggKind is an aggregate function.
type AggKind int

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (k AggKind) String() string {
	return [...]string{"count", "sum", "avg", "min", "max"}[k]
}

// AggSpec is one aggregate over a column. COUNT counts rows, COUNT(*),
// unless NonNull: COUNT(col) counts the rows whose Col is not NULL.
type AggSpec struct {
	Kind    AggKind
	Col     int
	NonNull bool
}

// hasArg reports whether the aggregate reads its column.
func (sp AggSpec) hasArg() bool { return sp.Kind != AggCount || sp.NonNull }

// aggCell is one aggregate of one group: its rows (COUNT(*)) or non-NULL
// inputs counted (COUNT(col)), summed (SUM, AVG) or folded to the least
// or greatest.
type aggCell struct {
	n   int64
	sum float64
	v   storage.Value
}

// fold folds v into c's MIN or MAX by ORDER BY's key order, so NaN
// sits after every number (storage.Compare, the predicate's order,
// makes NaN equal to every number: a partial that met a NaN first
// would keep it). A tie keeps the totalValueCompare-least value, as
// sortLess breaks ORDER BY ties, so MAX(v) is ORDER BY v DESC LIMIT 1
// and no answer depends on which worker saw which value first.
func (c *aggCell) fold(kind AggKind, v storage.Value) {
	r := compareKeys(sortKeyOf(v), sortKeyOf(c.v))
	if kind == AggMax {
		r = -r
	}
	if c.n == 0 || r < 0 || r == 0 && totalValueCompare(v, c.v) < 0 {
		c.v = v
	}
}

// aggAccum accumulates grouped aggregate state: workers each fill a
// local accumulator, then the partials are merged at the barrier
// (count/sum/n add, min/max fold), which is exact for every supported
// aggregate. It is also the aggregate probe sink (see pairSink): input
// arrives as a (build, probe) pair, and a plain tuple is the pair with
// no build side. State is flat, in first-seen order: group s of idx
// shows shown[s] (keyed keyOf(shown[s])) and its aggregate i is
// cells[s*len(aggs)+i], so a new group allocates nothing of its own.
type aggAccum struct {
	grouped bool
	group   PairCol // the grouping column, when grouped
	aggs    []AggSpec
	args    []PairCol // aggs[i]'s argument column
	idx     hashIndex
	shown   []storage.Value
	cells   []aggCell
}

// newAggAccum builds an accumulator grouping on groupCol (< 0 = one
// global group). m maps groupCol and every aggs[i].Col onto the input
// pair; nil means the input is a plain tuple (the probe side alone).
func newAggAccum(groupCol int, aggs []AggSpec, m []PairCol) *aggAccum {
	at := func(c int) PairCol {
		if m == nil {
			return PairCol{Probe: true, Idx: c}
		}
		return m[c]
	}
	const room = 8 // groups made room for up front; more double it
	a := &aggAccum{grouped: groupCol >= 0, aggs: aggs, args: make([]PairCol, len(aggs)),
		shown: make([]storage.Value, 0, room), cells: make([]aggCell, 0, room*len(aggs))}
	if a.grouped {
		a.group = at(groupCol)
	}
	for i, sp := range aggs {
		if sp.hasArg() {
			a.args[i] = at(sp.Col)
		}
	}
	a.idx.hash, a.idx.next = make([]uint32, 0, room), make([]int32, 0, room)
	a.idx.link(room)
	return a
}

// slot finds or adds the group keyed k, hashed h. Values with one key
// need not be identical (2 and 2.0, -0 and +0, NaN payloads): the group
// shows the least of them under totalValueCompare, so the output does
// not depend on which worker saw which first.
func (a *aggAccum) slot(k joinK, h uint32, gv storage.Value) int {
	for r := a.idx.chain(h); r != 0; r = a.idx.next[r-1] {
		if s := int(r - 1); a.idx.hash[s] == h && keyOf(a.shown[s]) == k {
			if k.class != keyStr && totalValueCompare(gv, a.shown[s]) < 0 {
				a.shown[s] = gv
			}
			return s
		}
	}
	a.shown = append(a.shown, gv)
	a.cells = append(a.cells, make([]aggCell, len(a.aggs))...)
	return a.idx.add(h)
}

// pair folds one probe match into the accumulator.
func (a *aggAccum) pair(b, p storage.Tuple) {
	var gv storage.Value // NULL: the global group's key
	if a.grouped {
		gv = a.group.of(b, p)
	}
	k := keyOf(gv)
	s := a.slot(k, k.hash(), gv) // before reading a.cells: slot may grow it
	cells := a.cells[s*len(a.aggs):]
	for i, sp := range a.aggs {
		c := &cells[i]
		if sp.hasArg() {
			v := a.args[i].of(b, p)
			if v.IsNull() {
				continue
			}
			switch sp.Kind {
			case AggMin, AggMax:
				c.fold(sp.Kind, v)
			case AggSum, AggAvg:
				f, _ := v.AsFloat()
				c.sum += f
			}
		}
		c.n++
	}
}

// taken implements pairSink: an aggregate materialises nothing per
// match.
func (a *aggAccum) taken() (int, []storage.Value) { return 0, nil }

// merge folds another accumulator's partial state into this one.
func (a *aggAccum) merge(b *aggAccum) {
	for bs, gv := range b.shown {
		s := a.slot(keyOf(gv), b.idx.hash[bs], gv)
		cells := a.cells[s*len(a.aggs):]
		for i, bc := range b.cells[bs*len(b.aggs) : (bs+1)*len(b.aggs)] {
			c := &cells[i]
			if kind := a.aggs[i].Kind; bc.n > 0 && (kind == AggMin || kind == AggMax) {
				c.fold(kind, bc.v)
			}
			c.sum += bc.sum
			c.n += bc.n
		}
	}
}

// FoldGlobal is the pipeline's aggregate fold for a caller that feeds
// rows itself (the resumable aggregate), over one global group of
// aggs: it folds rows into state and returns the next state and the
// aggregates' values. The state is a tuple — per aggregate the count,
// the sum and the extreme so far; empty before the first row — which
// the record codec carries bit for bit, NaN and ±Inf included.
func FoldGlobal(aggs []AggSpec, state storage.Tuple, rows []storage.Tuple) (next, values storage.Tuple, err error) {
	if len(state) != 0 && len(state) != 3*len(aggs) {
		return nil, nil, fmt.Errorf("operators: aggregate state has %d values, want %d", len(state), 3*len(aggs))
	}
	a := newAggAccum(-1, aggs, nil)
	a.rows(nil) // adds the global group
	for i := 0; i < len(state); i += 3 {
		a.cells[i/3] = aggCell{n: state[i].Int, sum: state[i+1].Float, v: state[i+2]}
	}
	for _, t := range rows {
		a.pair(nil, t)
	}
	for _, c := range a.cells {
		next = append(next, storage.IntValue(c.n), storage.FloatValue(c.sum), c.v)
	}
	return next, a.rows(nil)[0], nil
}

// rows renders one tuple per group in first-seen order, carved from one
// arena: column j is position out[j] of [group?, agg1, ...] (nil: that).
func (a *aggAccum) rows(out []int) []storage.Tuple {
	if !a.grouped && len(a.shown) == 0 {
		// Global aggregate over empty input still emits one row.
		k := keyOf(storage.Value{})
		a.slot(k, k.hash(), storage.Value{})
	}
	base := 0
	if a.grouped {
		base = 1
	}
	if out == nil {
		out = make([]int, base+len(a.aggs))
		for j := range out {
			out[j] = j
		}
	}
	w := len(out)
	arena := make(storage.Tuple, len(a.shown)*w)
	res := make([]storage.Tuple, len(a.shown))
	for s := range a.shown {
		t := arena[s*w : (s+1)*w : (s+1)*w]
		for j, pos := range out {
			t[j] = a.value(s, pos-base)
		}
		res[s] = t
	}
	return res
}

// value renders aggregate i of group s; i < 0 is the group's value.
func (a *aggAccum) value(s, i int) storage.Value {
	if i < 0 {
		return a.shown[s]
	}
	c := a.cells[s*len(a.aggs)+i]
	switch kind := a.aggs[i].Kind; {
	case kind == AggCount:
		return storage.IntValue(c.n)
	case kind == AggSum:
		return storage.FloatValue(c.sum)
	case c.n == 0:
		return storage.NullValue()
	case kind == AggAvg:
		return storage.FloatValue(c.sum / float64(c.n))
	}
	return c.v // AggMin, AggMax
}
