package operators

import (
	"errors"
	"fmt"

	"github.com/adm-project/adm/internal/storage"
)

// joinKey renders a value as a hash-map key. Numeric kinds normalise
// to float text so 2 (int) joins with 2.0 (float), matching Compare.
func joinKey(v storage.Value) string {
	if f, ok := v.AsFloat(); ok {
		return fmt.Sprintf("n:%g", f)
	}
	if v.Kind == storage.KindNull {
		return "∅" // never joins; filtered by callers
	}
	return "s:" + v.Str
}

func concat(l, r storage.Tuple) storage.Tuple {
	out := make(storage.Tuple, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// NestedLoopJoin is the naive O(|L|·|R|) equality join on LCol=RCol.
// The right input is materialised at Open.
type NestedLoopJoin struct {
	L, R       Iterator
	LCol, RCol int
	right      []storage.Tuple
	cur        storage.Tuple
	rpos       int
	open       bool
	// Comparisons counts predicate evaluations (cost accounting for
	// the Scenario 3 replanning decision).
	Comparisons uint64
}

// NewNestedLoopJoin joins l.lcol = r.rcol.
func NewNestedLoopJoin(l, r Iterator, lcol, rcol int) *NestedLoopJoin {
	return &NestedLoopJoin{L: l, R: r, LCol: lcol, RCol: rcol}
}

// Open implements Iterator.
func (j *NestedLoopJoin) Open() error {
	right, err := Drain(j.R)
	if err != nil {
		return err
	}
	j.right = right
	j.cur = nil
	j.rpos = 0
	j.open = true
	return j.L.Open()
}

// Next implements Iterator.
func (j *NestedLoopJoin) Next() (storage.Tuple, bool, error) {
	if !j.open {
		return nil, false, ErrNotOpen
	}
	for {
		if j.cur == nil {
			t, ok, err := j.L.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			j.rpos = 0
		}
		for j.rpos < len(j.right) {
			r := j.right[j.rpos]
			j.rpos++
			j.Comparisons++
			lv, rv := j.cur[j.LCol], r[j.RCol]
			if lv.IsNull() || rv.IsNull() {
				continue
			}
			if storage.Equal(lv, rv) {
				return concat(j.cur, r), true, nil
			}
		}
		j.cur = nil
	}
}

// Close implements Iterator.
func (j *NestedLoopJoin) Close() error {
	j.open = false
	j.right = nil
	return j.L.Close()
}

// CrossJoin is the cartesian product — the planner's last resort for
// disconnected join graphs. The right input is materialised at Open;
// the left is streamed.
type CrossJoin struct {
	L, R  Iterator
	right []storage.Tuple
	cur   storage.Tuple
	rpos  int
	open  bool
}

// NewCrossJoin builds l × r.
func NewCrossJoin(l, r Iterator) *CrossJoin {
	return &CrossJoin{L: l, R: r}
}

// Open implements Iterator.
func (j *CrossJoin) Open() error {
	right, err := Drain(j.R)
	if err != nil {
		return err
	}
	j.right = right
	j.cur = nil
	j.rpos = 0
	j.open = true
	return j.L.Open()
}

// Next implements Iterator.
func (j *CrossJoin) Next() (storage.Tuple, bool, error) {
	if !j.open {
		return nil, false, ErrNotOpen
	}
	for {
		if j.cur == nil {
			t, ok, err := j.L.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			j.rpos = 0
		}
		if j.rpos < len(j.right) {
			r := j.right[j.rpos]
			j.rpos++
			return concat(j.cur, r), true, nil
		}
		j.cur = nil
	}
}

// Close implements Iterator.
func (j *CrossJoin) Close() error {
	j.open = false
	j.right = nil
	return j.L.Close()
}

// HashJoin is the classic blocking hash join: build the left input
// fully, then stream the right. First output cannot appear before the
// entire build side has arrived — the blocking behaviour the adaptive
// joins exist to fix.
type HashJoin struct {
	Build, Probe       Iterator
	BuildCol, ProbeCol int
	table              map[string][]storage.Tuple
	pending            []storage.Tuple
	open               bool
	// BuildRows counts the materialised build side.
	BuildRows int
}

// NewHashJoin joins build.bcol = probe.pcol.
func NewHashJoin(build, probe Iterator, bcol, pcol int) *HashJoin {
	return &HashJoin{Build: build, Probe: probe, BuildCol: bcol, ProbeCol: pcol}
}

// Open implements Iterator.
func (j *HashJoin) Open() error {
	rows, err := Drain(j.Build)
	if err != nil {
		return err
	}
	j.table = make(map[string][]storage.Tuple, len(rows))
	for _, t := range rows {
		v := t[j.BuildCol]
		if v.IsNull() {
			continue
		}
		k := joinKey(v)
		j.table[k] = append(j.table[k], t)
	}
	j.BuildRows = len(rows)
	j.pending = nil
	j.open = true
	return j.Probe.Open()
}

// Next implements Iterator.
func (j *HashJoin) Next() (storage.Tuple, bool, error) {
	if !j.open {
		return nil, false, ErrNotOpen
	}
	for {
		if len(j.pending) > 0 {
			t := j.pending[0]
			j.pending = j.pending[1:]
			return t, true, nil
		}
		p, ok, err := j.Probe.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v := p[j.ProbeCol]
		if v.IsNull() {
			continue
		}
		for _, b := range j.table[joinKey(v)] {
			j.pending = append(j.pending, concat(b, p))
		}
	}
}

// Close implements Iterator.
func (j *HashJoin) Close() error {
	j.open = false
	j.table = nil
	return j.Probe.Close()
}

// IndexNLJoin probes a B-tree index for each outer tuple — the
// operator Scenario 3's re-optimiser injects when it "adds an index
// to one of the tables".
type IndexNLJoin struct {
	Outer    Iterator
	OuterCol int
	Index    *storage.BTree
	File     *storage.HeapView
	pending  []storage.Tuple
	open     bool
	// Probes counts index lookups.
	Probes uint64
}

// NewIndexNLJoin joins outer.col against the indexed inner file, read
// through file: a snapshot-bound reader hides the versions its
// statement must not see (index entries cover every version).
func NewIndexNLJoin(outer Iterator, outerCol int, index *storage.BTree, file *storage.HeapView) *IndexNLJoin {
	return &IndexNLJoin{Outer: outer, OuterCol: outerCol, Index: index, File: file}
}

// Open implements Iterator.
func (j *IndexNLJoin) Open() error {
	j.pending = nil
	j.open = true
	return j.Outer.Open()
}

// Next implements Iterator.
func (j *IndexNLJoin) Next() (storage.Tuple, bool, error) {
	if !j.open {
		return nil, false, ErrNotOpen
	}
	for {
		if len(j.pending) > 0 {
			t := j.pending[0]
			j.pending = j.pending[1:]
			return t, true, nil
		}
		o, ok, err := j.Outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v := o[j.OuterCol]
		if v.IsNull() {
			continue
		}
		j.Probes++
		for _, rid := range j.Index.Search(v) {
			inner, err := j.File.Get(rid)
			if errors.Is(err, storage.ErrNotFound) {
				continue // deleted under us, or outside the snapshot
			}
			if err != nil {
				return nil, false, err
			}
			j.pending = append(j.pending, concat(o, inner))
		}
	}
}

// Close implements Iterator.
func (j *IndexNLJoin) Close() error { j.open = false; return j.Outer.Close() }

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

// AggSpec is one aggregate over a column.
type AggSpec struct {
	Kind AggKind
	Col  int
}

// HashAggregate groups by GroupCol (or globally when GroupCol < 0)
// and computes the aggregates. Output tuples are [group, agg1, agg2,
// ...] (no group column when global), in first-seen group order.
type HashAggregate struct {
	In       Iterator
	GroupCol int
	Aggs     []AggSpec
	out      []storage.Tuple
	pos      int
	open     bool
}

// NewHashAggregate builds a grouping aggregate.
func NewHashAggregate(in Iterator, groupCol int, aggs []AggSpec) *HashAggregate {
	return &HashAggregate{In: in, GroupCol: groupCol, Aggs: aggs}
}

// aggCell is one aggregate of one group: its rows (COUNT) or non-NULL
// inputs counted, summed (SUM, AVG) or folded to the least or greatest.
type aggCell struct {
	n   int64
	sum float64
	v   storage.Value
}

// fold folds v into c's MIN or MAX.
func (c *aggCell) fold(kind AggKind, v storage.Value) {
	if c.n == 0 || kind == AggMin && storage.Compare(v, c.v) < 0 || kind == AggMax && storage.Compare(v, c.v) > 0 {
		c.v = v
	}
}

// aggAccum accumulates grouped aggregate state. It is the shared core
// of the serial HashAggregate and the parallel paths: workers each fill
// a local accumulator, then the partials are merged at the barrier
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
		if sp.Kind != AggCount {
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
		if sp.Kind != AggCount {
			v := a.args[i].of(b, p)
			if v.IsNull() {
				continue
			}
			if sp.Kind == AggMin || sp.Kind == AggMax {
				c.fold(sp.Kind, v)
			} else {
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

// Open implements Iterator.
func (a *HashAggregate) Open() error {
	rows, err := Drain(a.In)
	if err != nil {
		return err
	}
	acc := newAggAccum(a.GroupCol, a.Aggs, nil)
	for _, t := range rows {
		acc.pair(nil, t)
	}
	a.out, a.pos, a.open = acc.rows(nil), 0, true
	return nil
}

// Next implements Iterator.
func (a *HashAggregate) Next() (storage.Tuple, bool, error) {
	if !a.open {
		return nil, false, ErrNotOpen
	}
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	t := a.out[a.pos]
	a.pos++
	return t, true, nil
}

// Close implements Iterator.
func (a *HashAggregate) Close() error { a.open, a.out = false, nil; return nil }
