package operators

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/adm-project/adm/internal/storage"
)

func rows(vals ...int64) []storage.Tuple {
	var out []storage.Tuple
	for _, v := range vals {
		out = append(out, storage.Tuple{storage.IntValue(v), storage.StringValue("r")})
	}
	return out
}

func intsOf(ts []storage.Tuple, col int) []int64 {
	var out []int64
	for _, t := range ts {
		out = append(out, t[col].Int)
	}
	return out
}

// TestFilterProjectLimit runs filter, projection and a row limit the
// way a bare scan's tail does: the limit stops claiming once covered,
// so one-row batches at one worker stop at exactly the limit.
func TestFilterProjectLimit(t *testing.T) {
	src := NewFilterBatches(NewSliceBatches(rows(1, 2, 3, 4, 5, 6), 1), func(t storage.Tuple) bool {
		return t[0].Int%2 == 0
	})
	kept, err := DrainParallelBatches(src, ParallelConfig{Workers: 1, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ProjectTuples(nil, kept, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][0].Int != 2 || got[1][0].Int != 4 || len(got[0]) != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestProjectOutOfRange(t *testing.T) {
	if _, err := ProjectTuples(nil, rows(1), []int{5}); err == nil {
		t.Fatal("want error")
	}
}

func TestSortAscDesc(t *testing.T) {
	src := rows(3, 1, 2)
	sorted := func(desc bool) []int64 {
		got, err := ParallelSortBatches(NewSliceBatches(src, 0), 0, desc, nil, ParallelConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return intsOf(got, 0)
	}
	if got := sorted(false); got[0] != 1 || got[2] != 3 {
		t.Fatalf("asc = %v", got)
	}
	if got := sorted(true); got[0] != 3 || got[2] != 1 {
		t.Fatalf("desc = %v", got)
	}
}

// TestHeapAndIndexScan counts a heap source and checks an index range
// scan: the range's rows in posting order, then the NaN rows (NaN
// equals every number to a predicate, but the index files it last),
// minus a version deleted before the reading snapshot, each beside its
// RID, in claims of at most the run size at any size, exhausted for
// good — and the same multiset when four workers share it.
func TestHeapAndIndexScan(t *testing.T) {
	db, hf := newHeap(t, "t")
	idx := storage.NewBTree("t_a")
	var seed []storage.Tuple
	for i := int64(0); i < 100; i++ {
		seed = append(seed, storage.Tuple{storage.IntValue(i), storage.StringValue("x")})
	}
	nan := storage.FloatValue(math.NaN())
	seed = append(seed, storage.Tuple{nan, storage.StringValue("n")}, storage.Tuple{nan, storage.StringValue("n")})
	rids := load(t, db, hf, seed...)
	for i, rid := range rids {
		idx.Insert(seed[i][0], rid)
	}
	n, err := Count(NewHeapBatches(hf.Blind(), nil, false))
	if err != nil || n != 102 {
		t.Fatalf("heap count = %d %v", n, err)
	}
	del := db.Txns().Begin()
	if err := del.Delete(hf, rids[13]); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	view := db.Txns().Begin().View(hf)
	var want []storage.Tuple
	for i := 10; i < 20; i++ {
		if i != 13 {
			want = append(want, seed[i])
		}
	}
	want = append(want, seed[100:]...)
	for _, size := range []int{1, 3, 0} {
		s := NewIndexScan(view, idx, storage.IntValue(10), storage.IntValue(19), size)
		b := GetBatch()
		var got []storage.Tuple
		for {
			n, err := s.NextBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			if size > 0 && n > size || len(b.RIDs) != n {
				t.Fatalf("size=%d: batch of %d rows, %d RIDs", size, n, len(b.RIDs))
			}
			for i, tu := range b.Tuples {
				if at, err := view.Get(b.RIDs[i]); err != nil || at[1].Str != tu[1].Str || at[0].String() != tu[0].String() {
					t.Fatalf("size=%d: %v beside %v, which holds %v (%v)", size, tu, b.RIDs[i], at, err)
				}
			}
			got = append(got, b.Tuples...)
		}
		if n, err := s.NextBatch(b); n != 0 || err != nil {
			t.Fatalf("size=%d: claim after exhaustion = %d, %v", size, n, err)
		}
		PutBatch(b)
		requireSameRows(t, fmt.Sprintf("size=%d", size), got, want)
	}
	got, err := DrainParallelBatches(NewIndexScan(view, idx, storage.IntValue(10), storage.IntValue(19), 2),
		ParallelConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, want)
}

func joinInputs() ([]storage.Tuple, []storage.Tuple) {
	var l, r []storage.Tuple
	for i := int64(0); i < 30; i++ {
		l = append(l, storage.Tuple{storage.IntValue(i % 10), storage.StringValue("L")})
	}
	for i := int64(0); i < 20; i++ {
		r = append(r, storage.Tuple{storage.IntValue(i % 5), storage.StringValue("R")})
	}
	return l, r
}

// TestJoinsAgree checks the hash join (build, then probe) against the
// nested-loop oracle at one and several workers.
func TestJoinsAgree(t *testing.T) {
	l, r := joinInputs()
	nl := joinOracle(l, r, 0)
	// 30 L tuples: keys 0..9 3× each. 20 R tuples: keys 0..4 4× each.
	// Matches: keys 0..4: 3*4 = 12 each → 60.
	if len(nl) != 60 {
		t.Fatalf("NL join = %d rows", len(nl))
	}
	for _, w := range []int{1, 4} {
		cfg := ParallelConfig{Workers: w}
		bt, _, err := ParallelBuildBatches(NewSliceBatches(l, 4), 0, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		hj, err := bt.ProbeProject(NewSliceBatches(r, 4), 0, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameMultiset(t, hj, nl)
	}
}

func TestHashJoinRespectsColumnsAndNulls(t *testing.T) {
	l := []storage.Tuple{
		{storage.IntValue(1), storage.StringValue("a")},
		{storage.NullValue(), storage.StringValue("b")},
	}
	r := []storage.Tuple{
		{storage.StringValue("x"), storage.IntValue(1)},
		{storage.StringValue("y"), storage.NullValue()},
	}
	cfg := ParallelConfig{Workers: 1}
	bt, _, err := ParallelBuildBatches(NewSliceBatches(l, 0), 0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bt.ProbeProject(NewSliceBatches(r, 0), 1, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][3].Int != 1 {
		t.Fatalf("got %v", got)
	}
}

// TestIndexNLJoin checks the index nested-loop join against a nested
// loop over the inner view at 1/2/4 workers: a NULL outer key and an
// unmatched one join nothing, and a version deleted before the reading
// snapshot is skipped. Each joined row is the outer's columns, then the
// inner's.
func TestIndexNLJoin(t *testing.T) {
	db, inner := newHeap(t, "inner")
	idx := storage.NewBTree("inner_k")
	var seed []storage.Tuple
	for i := int64(0); i < 50; i++ {
		seed = append(seed, storage.Tuple{storage.IntValue(i % 10), storage.IntValue(i)})
	}
	rids := load(t, db, inner, seed...)
	for i, rid := range rids {
		idx.Insert(storage.IntValue(int64(i%10)), rid)
	}
	del := db.Txns().Begin()
	if err := del.Delete(inner, rids[3]); err != nil { // key 3
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	view := db.Txns().Begin().View(inner)
	outer := append(rows(3, 7, 42, 3), storage.Tuple{storage.NullValue(), storage.StringValue("r")})
	all, err := view.All()
	if err != nil {
		t.Fatal(err)
	}
	var want []storage.Tuple
	for _, o := range outer {
		for _, in := range all {
			if !o[0].IsNull() && storage.Compare(o[0], in[0]) == 0 {
				want = append(want, append(append(storage.Tuple{}, o...), in...))
			}
		}
	}
	if len(want) != 13 { // 4 + 5 + 0 + 4 + 0: one key-3 version deleted
		t.Fatalf("nested loop = %d rows", len(want))
	}
	for _, w := range []int{1, 2, 4} {
		for _, size := range []int{1, 2, 0} {
			got, err := DrainParallelBatches(NewIndexNLJoin(NewSliceBatches(outer, size), 0, idx, view),
				ParallelConfig{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			sameMultiset(t, got, want)
		}
	}
}

func TestHashAggregate(t *testing.T) {
	src := []storage.Tuple{
		{storage.StringValue("a"), storage.IntValue(10)},
		{storage.StringValue("b"), storage.IntValue(5)},
		{storage.StringValue("a"), storage.IntValue(20)},
		{storage.StringValue("a"), storage.NullValue()},
	}
	got, err := ParallelHashAggregateBatches(NewSliceBatches(src, 0), 0, []AggSpec{
		{Kind: AggCount}, {Kind: AggSum, Col: 1}, {Kind: AggAvg, Col: 1},
		{Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1},
	}, nil, ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("groups = %d", len(got))
	}
	a := got[0] // first-seen order: "a"
	if a[0].Str != "a" || a[1].Int != 3 || a[2].Float != 30 || a[3].Float != 15 ||
		a[4].Int != 10 || a[5].Int != 20 {
		t.Fatalf("group a = %v", a)
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	got, err := ParallelHashAggregateBatches(NewSliceBatches(nil, 0), -1,
		[]AggSpec{{Kind: AggCount}, {Kind: AggAvg, Col: 0}}, nil, ParallelConfig{Workers: 1})
	if err != nil || len(got) != 1 {
		t.Fatalf("%v %v", got, err)
	}
	if got[0][0].Int != 0 || !got[0][1].IsNull() {
		t.Fatalf("empty agg = %v", got[0])
	}
}

// --------------------------------------------------------------------------
// Timed adaptive joins.

func timedInputs(n int, lPat, rPat ArrivalPattern) (*TimedSource, *TimedSource) {
	var l, r []storage.Tuple
	for i := 0; i < n; i++ {
		l = append(l, storage.Tuple{storage.IntValue(int64(i % 20)), storage.StringValue("L")})
		r = append(r, storage.Tuple{storage.IntValue(int64(i % 20)), storage.StringValue("R")})
	}
	return NewTimedSource("L", l, lPat), NewTimedSource("R", r, rPat)
}

func TestTimedSourceSchedule(t *testing.T) {
	src := NewTimedSource("s", rows(1, 2, 3), ArrivalPattern{InitialDelayMS: 10, PerTupleMS: 5})
	if _, ok := src.PollAt(9); ok {
		t.Fatal("early poll succeeded")
	}
	a, ok := src.NextArrival()
	if !ok || a != 10 {
		t.Fatalf("next arrival = %v", a)
	}
	tu, ok := src.PollAt(10)
	if !ok || tu.Seq != 0 {
		t.Fatalf("poll = %+v %v", tu, ok)
	}
	if src.LastArrival() != 20 {
		t.Fatalf("last = %v", src.LastArrival())
	}
	src.Reset()
	if src.Done() || src.Remaining() != 3 {
		t.Fatal("reset failed")
	}
}

func TestTimedSourceStalls(t *testing.T) {
	src := NewTimedSource("s", rows(1, 2, 3, 4), ArrivalPattern{PerTupleMS: 1, StallEvery: 2, StallMS: 100})
	// arrivals: 0, 1, 102, 103
	times := []float64{}
	for !src.Done() {
		a, _ := src.NextArrival()
		times = append(times, a)
		src.PollAt(a)
	}
	want := []float64{0, 1, 102, 103}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("arrivals = %v", times)
		}
	}
}

func sameOutputs(t *testing.T, a, b RunResult, label string) {
	t.Helper()
	ca := map[[2]int]int{}
	for _, o := range a.Outputs {
		ca[[2]int{o.LSeq, o.RSeq}]++
	}
	cb := map[[2]int]int{}
	for _, o := range b.Outputs {
		cb[[2]int{o.LSeq, o.RSeq}]++
	}
	if len(ca) != len(cb) || len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("%s: result sets differ: %d vs %d", label, len(a.Outputs), len(b.Outputs))
	}
	for k, v := range ca {
		if cb[k] != v {
			t.Fatalf("%s: pair %v count %d vs %d", label, k, v, cb[k])
		}
	}
}

func TestAdaptiveJoinsProduceSameResults(t *testing.T) {
	mk := func() (*TimedSource, *TimedSource) {
		return timedInputs(200,
			ArrivalPattern{InitialDelayMS: 50, PerTupleMS: 2, StallEvery: 50, StallMS: 200},
			ArrivalPattern{PerTupleMS: 1})
	}
	l1, r1 := mk()
	blocking := RunBlockingHashJoin(l1, r1, 0, 0)
	l2, r2 := mk()
	symmetric := RunSymmetricHashJoin(l2, r2, 0, 0)
	l3, r3 := mk()
	xjoin := RunXJoin(l3, r3, 0, 0, XJoinConfig{MemTuplesPerSide: 32, ReactiveBatch: 16, ReactiveStepMS: 1})
	// 200 tuples each side, keys i%20 → 10 repeats per key per side →
	// 20 keys × 10 × 10 = 2000 output pairs.
	if len(blocking.Outputs) != 2000 {
		t.Fatalf("blocking outputs = %d", len(blocking.Outputs))
	}
	sameOutputs(t, blocking, symmetric, "blocking-vs-symmetric")
	sameOutputs(t, blocking, xjoin, "blocking-vs-xjoin")
}

// TestAdaptiveJoinsKeyLikeTheHashJoin: the timed joins match keys as
// the pipeline's hash join does (keyOf): -0 meets 0, Int 2 meets Float
// 2, NaN meets NaN, NULL meets nothing and the string "2" only itself
// — ten matches of these keys with themselves.
func TestAdaptiveJoinsKeyLikeTheHashJoin(t *testing.T) {
	var keys []storage.Tuple
	for _, v := range []storage.Value{storage.FloatValue(math.Copysign(0, -1)), storage.FloatValue(0), storage.IntValue(2),
		storage.FloatValue(2), storage.FloatValue(math.NaN()), storage.NullValue(), storage.StringValue("2")} {
		keys = append(keys, storage.Tuple{v})
	}
	cfg := ParallelConfig{Workers: 1}
	bt, _, err := ParallelBuildBatches(NewSliceBatches(keys, 0), 0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hj, err := bt.ProbeProject(NewSliceBatches(keys, 0), 0, cfg, nil, nil)
	if err != nil || len(hj) != 10 {
		t.Fatalf("hash join: %d matches, %v", len(hj), err)
	}
	mk := func() (*TimedSource, *TimedSource) {
		return NewTimedSource("L", keys, ArrivalPattern{PerTupleMS: 1}), NewTimedSource("R", keys, ArrivalPattern{PerTupleMS: 2})
	}
	l1, r1 := mk()
	l2, r2 := mk()
	l3, r3 := mk()
	for name, res := range map[string]RunResult{
		"blocking":  RunBlockingHashJoin(l1, r1, 0, 0),
		"symmetric": RunSymmetricHashJoin(l2, r2, 0, 0),
		"xjoin":     RunXJoin(l3, r3, 0, 0, XJoinConfig{MemTuplesPerSide: 2, ReactiveBatch: 1, ReactiveStepMS: 1}),
	} {
		var got []storage.Tuple
		for _, o := range res.Outputs {
			got = append(got, o.Tuple)
		}
		if len(got) != len(hj) {
			t.Fatalf("%s: %d matches, hash join %d", name, len(got), len(hj))
		}
		sameMultiset(t, got, hj)
	}
}

func TestSymmetricBeatsBlockingTimeToFirstTuple(t *testing.T) {
	// Both sides trickle in slowly: the blocking join cannot emit
	// until the whole build side lands; the symmetric join emits on
	// the first matching arrivals.
	mk := func() (*TimedSource, *TimedSource) {
		return timedInputs(100,
			ArrivalPattern{PerTupleMS: 10},
			ArrivalPattern{PerTupleMS: 10})
	}
	l1, r1 := mk()
	blocking := RunBlockingHashJoin(l1, r1, 0, 0)
	l2, r2 := mk()
	symmetric := RunSymmetricHashJoin(l2, r2, 0, 0)
	if blocking.FirstOutputMS < 10*99 {
		t.Fatalf("blocking emitted before build completed: %v", blocking.FirstOutputMS)
	}
	if symmetric.FirstOutputMS >= blocking.FirstOutputMS/10 {
		t.Fatalf("symmetric first output %v vs blocking %v: want ≥10× earlier",
			symmetric.FirstOutputMS, blocking.FirstOutputMS)
	}
}

func TestXJoinWorksDuringStalls(t *testing.T) {
	// Both sources stall together mid-stream for a long window.
	pat := ArrivalPattern{PerTupleMS: 1, StallEvery: 100, StallMS: 5000}
	l1, r1 := timedInputs(300, pat, pat)
	sym := RunSymmetricHashJoin(l1, r1, 0, 0)
	l2, r2 := timedInputs(300, pat, pat)
	xj := RunXJoin(l2, r2, 0, 0, XJoinConfig{MemTuplesPerSide: 64, ReactiveBatch: 8, ReactiveStepMS: 5})
	// During the first stall window (strictly inside it, so the burst
	// of arrivals at t=5100 is excluded) the symmetric join is idle
	// while XJoin's reactive stage keeps emitting disk×disk matches.
	stallStart, stallEnd := 99.5, 5099.0
	symDuring := sym.OutputsBy(stallEnd) - sym.OutputsBy(stallStart)
	xjDuring := xj.OutputsBy(stallEnd) - xj.OutputsBy(stallStart)
	if xjDuring <= symDuring {
		t.Fatalf("xjoin stall-window outputs %d <= symmetric %d", xjDuring, symDuring)
	}
	if xj.IdleMS >= sym.IdleMS {
		t.Fatalf("xjoin idle %v >= symmetric idle %v", xj.IdleMS, sym.IdleMS)
	}
	// XJoin respects its memory cap.
	if xj.MaxMemTuples > 64 {
		t.Fatalf("xjoin mem = %d > cap", xj.MaxMemTuples)
	}
}

func TestXJoinNoDuplicates(t *testing.T) {
	pat := ArrivalPattern{PerTupleMS: 1, StallEvery: 20, StallMS: 50}
	l, r := timedInputs(150, pat, pat)
	xj := RunXJoin(l, r, 0, 0, XJoinConfig{MemTuplesPerSide: 16, ReactiveBatch: 8, ReactiveStepMS: 1})
	seen := map[[2]int]bool{}
	for _, o := range xj.Outputs {
		k := [2]int{o.LSeq, o.RSeq}
		if seen[k] {
			t.Fatalf("duplicate output pair %v", k)
		}
		seen[k] = true
	}
}

func TestRippleJoinConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var l, r []storage.Tuple
	exact := 0.0
	for i := 0; i < 120; i++ {
		k := int64(rng.Intn(15))
		v := float64(rng.Intn(100))
		l = append(l, storage.Tuple{storage.IntValue(k), storage.FloatValue(v)})
	}
	for i := 0; i < 80; i++ {
		k := int64(rng.Intn(15))
		r = append(r, storage.Tuple{storage.IntValue(k), storage.StringValue("r")})
	}
	for _, lt := range l {
		for _, rt := range r {
			if storage.Equal(lt[0], rt[0]) {
				exact += lt[1].Float
			}
		}
	}
	ls := NewTimedSource("L", l, ArrivalPattern{PerTupleMS: 1})
	rs := NewTimedSource("R", r, ArrivalPattern{PerTupleMS: 1})
	res := RunRippleJoin(ls, rs, 0, 0, 1, 10)
	if res.FinalSum != exact {
		t.Fatalf("final = %v, exact = %v", res.FinalSum, exact)
	}
	if len(res.Trajectory) < 5 {
		t.Fatalf("trajectory too short: %d", len(res.Trajectory))
	}
	last := res.Trajectory[len(res.Trajectory)-1]
	if last.Fraction != 1 || last.Estimate != exact {
		t.Fatalf("last point = %+v", last)
	}
	// Estimates exist long before completion (online aggregation).
	first := res.Trajectory[0]
	if first.Fraction >= 0.3 {
		t.Fatalf("first estimate only at fraction %v", first.Fraction)
	}
	// The late-run estimate should be close to exact (within 50%).
	mid := res.Trajectory[len(res.Trajectory)/2]
	if exact > 0 && math.Abs(mid.Estimate-exact)/exact > 0.5 {
		t.Logf("mid estimate %.0f vs exact %.0f (loose sampling bound)", mid.Estimate, exact)
	}
}

func TestEddyAdaptsToDrift(t *testing.T) {
	// Two filters; selectivities invert halfway through the stream.
	n := 4000
	tuples := make([]storage.Tuple, n)
	for i := range tuples {
		tuples[i] = storage.Tuple{storage.IntValue(int64(i))}
	}
	mk := func() []*EddyFilter {
		return []*EddyFilter{
			{Name: "A", Cost: 1, Pred: func(t storage.Tuple) bool {
				i := t[0].Int
				if i < int64(n/2) {
					return i%10 == 0 // selective early
				}
				return i%10 != 0 // permissive late
			}},
			{Name: "B", Cost: 1, Pred: func(t storage.Tuple) bool {
				i := t[0].Int
				if i < int64(n/2) {
					return i%10 != 0 // permissive early
				}
				return i%10 == 0 // selective late
			}},
		}
	}
	// Static order B,A: wrong for the first half, right for the second.
	static := RunEddy(tuples, []*EddyFilter{mk()[1], mk()[0]}, 0)
	adaptive := RunEddy(tuples, []*EddyFilter{mk()[1], mk()[0]}, 100)
	if adaptive.Work >= static.Work {
		t.Fatalf("adaptive work %v >= static %v", adaptive.Work, static.Work)
	}
	if adaptive.Reorders == 0 {
		t.Fatal("eddy never re-routed")
	}
	if adaptive.Passed != static.Passed {
		t.Fatalf("routing changed semantics: %d vs %d", adaptive.Passed, static.Passed)
	}
}

// Property: all three timed joins produce identical result multisets
// for random inputs and arrival patterns.
func TestTimedJoinEquivalenceProperty(t *testing.T) {
	f := func(seed int64, nRaw, memRaw uint8) bool {
		n := int(nRaw)%80 + 5
		mem := int(memRaw)%32 + 4
		rng := rand.New(rand.NewSource(seed))
		var l, r []storage.Tuple
		for i := 0; i < n; i++ {
			l = append(l, storage.Tuple{storage.IntValue(int64(rng.Intn(8)))})
			r = append(r, storage.Tuple{storage.IntValue(int64(rng.Intn(8)))})
		}
		mk := func() (*TimedSource, *TimedSource) {
			return NewTimedSource("L", l, ArrivalPattern{PerTupleMS: float64(rng.Intn(3)), StallEvery: 10, StallMS: 20}),
				NewTimedSource("R", r, ArrivalPattern{PerTupleMS: 1})
		}
		l1, r1 := mk()
		a := RunBlockingHashJoin(l1, r1, 0, 0)
		l2, r2 := mk()
		b := RunSymmetricHashJoin(l2, r2, 0, 0)
		l3, r3 := mk()
		c := RunXJoin(l3, r3, 0, 0, XJoinConfig{MemTuplesPerSide: mem, ReactiveBatch: 4, ReactiveStepMS: 1})
		count := func(res RunResult) map[[2]int]int {
			m := map[[2]int]int{}
			for _, o := range res.Outputs {
				m[[2]int{o.LSeq, o.RSeq}]++
			}
			return m
		}
		ca, cb, cc := count(a), count(b), count(c)
		if len(ca) != len(cb) || len(ca) != len(cc) {
			return false
		}
		for k, v := range ca {
			if v != 1 || cb[k] != 1 || cc[k] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRippleConfidenceShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var l, r []storage.Tuple
	for i := 0; i < 200; i++ {
		l = append(l, storage.Tuple{storage.IntValue(int64(rng.Intn(10))), storage.FloatValue(float64(rng.Intn(50)))})
		r = append(r, storage.Tuple{storage.IntValue(int64(rng.Intn(10)))})
	}
	ls := NewTimedSource("L", l, ArrivalPattern{PerTupleMS: 1})
	rs := NewTimedSource("R", r, ArrivalPattern{PerTupleMS: 1})
	res := RunRippleJoin(ls, rs, 0, 0, 1, 20)
	if len(res.Trajectory) < 5 {
		t.Fatalf("trajectory = %d points", len(res.Trajectory))
	}
	early := res.Trajectory[1]
	late := res.Trajectory[len(res.Trajectory)-2]
	if early.HalfWidth <= 0 {
		t.Fatalf("early half-width = %v", early.HalfWidth)
	}
	if late.HalfWidth >= early.HalfWidth {
		t.Fatalf("half-width did not shrink: %v -> %v", early.HalfWidth, late.HalfWidth)
	}
	// Final point covers the exact answer trivially (fraction 1).
	final := res.Trajectory[len(res.Trajectory)-1]
	if final.Fraction != 1 || final.Estimate != res.Exact {
		t.Fatalf("final point = %+v", final)
	}
}
