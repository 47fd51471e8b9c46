package operators

import (
	"math"
	"math/rand"
	"sort"
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

func TestMemScanAndDrain(t *testing.T) {
	got, err := Drain(NewMemScan(rows(1, 2, 3)))
	if err != nil || len(got) != 3 {
		t.Fatalf("%v %v", got, err)
	}
	if _, _, err := NewMemScan(nil).Next(); err != ErrNotOpen {
		t.Fatalf("unopened Next: %v", err)
	}
}

func TestFilterProjectLimit(t *testing.T) {
	src := NewMemScan(rows(1, 2, 3, 4, 5, 6))
	it := NewLimit(NewProject(NewFilter(src, func(t storage.Tuple) bool {
		return t[0].Int%2 == 0
	}), []int{0}), 2)
	got, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][0].Int != 2 || got[1][0].Int != 4 || len(got[0]) != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestProjectOutOfRange(t *testing.T) {
	it := NewProject(NewMemScan(rows(1)), []int{5})
	if _, err := Drain(it); err == nil {
		t.Fatal("want error")
	}
}

func TestSortAscDesc(t *testing.T) {
	src := rows(3, 1, 2)
	asc, _ := Drain(NewSort(NewMemScan(src), 0, false))
	if got := intsOf(asc, 0); got[0] != 1 || got[2] != 3 {
		t.Fatalf("asc = %v", got)
	}
	desc, _ := Drain(NewSort(NewMemScan(src), 0, true))
	if got := intsOf(desc, 0); got[0] != 3 || got[2] != 1 {
		t.Fatalf("desc = %v", got)
	}
}

func TestHeapAndIndexScan(t *testing.T) {
	db, hf := newHeap(t, "t", 16)
	idx := storage.NewBTree("t_a")
	var seed []storage.Tuple
	for i := int64(0); i < 100; i++ {
		seed = append(seed, storage.Tuple{storage.IntValue(i), storage.StringValue("x")})
	}
	for i, rid := range load(t, db, hf, seed...) {
		idx.Insert(storage.IntValue(int64(i)), rid)
	}
	n, err := Count(NewHeapScan(hf))
	if err != nil || n != 100 {
		t.Fatalf("heap count = %d %v", n, err)
	}
	got, err := Drain(NewIndexScan(hf, idx, storage.IntValue(10), storage.IntValue(19)))
	if err != nil || len(got) != 10 {
		t.Fatalf("index scan = %d %v", len(got), err)
	}
	for i, tu := range got {
		if tu[0].Int != int64(10+i) {
			t.Fatalf("order: %v", intsOf(got, 0))
		}
	}
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

func canonical(ts []storage.Tuple) []string {
	var out []string
	for _, t := range ts {
		s := ""
		for _, v := range t {
			s += v.String() + "|"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestJoinsAgree(t *testing.T) {
	l, r := joinInputs()
	nl, err := Drain(NewNestedLoopJoin(NewMemScan(l), NewMemScan(r), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	hj, err := Drain(NewHashJoin(NewMemScan(l), NewMemScan(r), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// 30 L tuples: keys 0..9 3× each. 20 R tuples: keys 0..4 4× each.
	// Matches: keys 0..4: 3*4 = 12 each → 60.
	if len(nl) != 60 {
		t.Fatalf("NL join = %d rows", len(nl))
	}
	a, b := canonical(nl), canonical(hj)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("join disagreement at %d", i)
		}
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
	got, err := Drain(NewHashJoin(NewMemScan(l), NewMemScan(r), 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][3].Int != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestIndexNLJoin(t *testing.T) {
	db, inner := newHeap(t, "inner", 16)
	idx := storage.NewBTree("inner_k")
	var seed []storage.Tuple
	for i := int64(0); i < 50; i++ {
		seed = append(seed, storage.Tuple{storage.IntValue(i % 10), storage.IntValue(i)})
	}
	for i, rid := range load(t, db, inner, seed...) {
		idx.Insert(storage.IntValue(int64(i%10)), rid)
	}
	outer := rows(3, 7, 3)
	j := NewIndexNLJoin(NewMemScan(outer), 0, idx, inner)
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 15 { // 5 inner matches per outer tuple
		t.Fatalf("rows = %d", len(got))
	}
	if j.Probes != 3 {
		t.Fatalf("probes = %d", j.Probes)
	}
	// Agreement with hash join.
	all, _ := inner.All()
	hj, _ := Drain(NewHashJoin(NewMemScan(outer), NewMemScan(all), 0, 0))
	if len(hj) != len(got) {
		t.Fatalf("hash=%d indexnl=%d", len(hj), len(got))
	}
}

func TestHashAggregate(t *testing.T) {
	src := []storage.Tuple{
		{storage.StringValue("a"), storage.IntValue(10)},
		{storage.StringValue("b"), storage.IntValue(5)},
		{storage.StringValue("a"), storage.IntValue(20)},
		{storage.StringValue("a"), storage.NullValue()},
	}
	it := NewHashAggregate(NewMemScan(src), 0, []AggSpec{
		{Kind: AggCount}, {Kind: AggSum, Col: 1}, {Kind: AggAvg, Col: 1},
		{Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1},
	})
	got, err := Drain(it)
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
	it := NewHashAggregate(NewMemScan(nil), -1, []AggSpec{{Kind: AggCount}, {Kind: AggAvg, Col: 0}})
	got, err := Drain(it)
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
