package operators

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

func intTuple(vs ...int64) storage.Tuple {
	t := make(storage.Tuple, len(vs))
	for i, v := range vs {
		t[i] = storage.IntValue(v)
	}
	return t
}

// multiset renders tuples as a sorted string multiset for comparison
// across nondeterministic orderings.
func multiset(ts []storage.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		s := ""
		for _, v := range t {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func sameMultiset(t *testing.T, got, want []storage.Tuple) {
	t.Helper()
	g, w := multiset(got), multiset(want)
	if len(g) != len(w) {
		t.Fatalf("row count: got %d want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: got %q want %q", i, g[i], w[i])
		}
	}
}

func TestSliceBatchesCoverEverythingOnce(t *testing.T) {
	var in []storage.Tuple
	for i := 0; i < 1000; i++ {
		in = append(in, intTuple(int64(i)))
	}
	src := NewSliceBatches(in, 7)
	got, err := DrainParallelBatches(src, ParallelConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, in)
}

func TestHeapBatchesMatchSerialScan(t *testing.T) {
	db, hf := newHeap(t, "t")
	var want []storage.Tuple
	for i := 0; i < 2500; i++ {
		want = append(want, intTuple(int64(i), int64(i%13)))
	}
	load(t, db, hf, want...)
	got, err := DrainParallelBatches(NewHeapBatches(hf.Blind(), nil, false), ParallelConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, want)
}

func TestFilterBatches(t *testing.T) {
	var in, want []storage.Tuple
	for i := 0; i < 500; i++ {
		tp := intTuple(int64(i))
		in = append(in, tp)
		if i%3 == 0 {
			want = append(want, tp)
		}
	}
	src := NewFilterBatches(NewSliceBatches(in, 16), func(t storage.Tuple) bool {
		return t[0].Int%3 == 0
	})
	got, err := DrainParallelBatches(src, ParallelConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, want)
}

func TestParallelJoinMatchesSerial(t *testing.T) {
	var build, probe []storage.Tuple
	for i := 0; i < 800; i++ {
		build = append(build, intTuple(int64(i%50), int64(i)))
	}
	for i := 0; i < 1200; i++ {
		probe = append(probe, intTuple(int64(i%75), int64(-i)))
	}
	// some nulls on both sides: they never join
	build = append(build, storage.Tuple{storage.NullValue(), storage.IntValue(1)})
	probe = append(probe, storage.Tuple{storage.NullValue(), storage.IntValue(2)})

	want := joinOracle(build, probe, 0)

	for _, workers := range []int{1, 2, 4, 8} {
		cfg := ParallelConfig{Workers: workers, MorselSize: 64}
		bt, _, err := ParallelBuildBatches(NewSliceBatches(build, 64), 0, cfg, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if bt.Rows() != len(build) {
			t.Fatalf("workers=%d: build rows %d want %d", workers, bt.Rows(), len(build))
		}
		got, err := bt.ProbeProject(NewSliceBatches(probe, 64), 0, cfg, nil, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameMultiset(t, got, want)
	}
}

// TestProbeSinksMatchSerial checks both probe sinks against the
// materialising oracles — joinOracle, then the residual equality as a
// filter, then a projection or groupOracle over the joined rows — with
// the sinks reading the same columns through a pair map.
func TestProbeSinksMatchSerial(t *testing.T) {
	var build, probe []storage.Tuple
	for i := 0; i < 300; i++ {
		build = append(build, intTuple(int64(i%50), int64(i%4), int64(i)))
	}
	for i := 0; i < 900; i++ {
		probe = append(probe, intTuple(int64(i%75), int64(i%3), int64(-i)))
	}
	build = append(build, storage.Tuple{storage.NullValue(), storage.IntValue(1), storage.IntValue(1)},
		storage.Tuple{storage.IntValue(7), storage.NullValue(), storage.NullValue()})
	probe = append(probe, storage.Tuple{storage.NullValue(), storage.IntValue(2), storage.IntValue(2)},
		storage.Tuple{storage.IntValue(7), storage.NullValue(), storage.NullValue()})

	// The conceptual joined row is build ++ probe: positions 0-2, 3-5.
	rowMap := []PairCol{{Idx: 0}, {Idx: 1}, {Idx: 2}, {Probe: true, Idx: 0}, {Probe: true, Idx: 1}, {Probe: true, Idx: 2}}
	on := []PairEq{{A: rowMap[1], B: rowMap[4]}} // build.1 = probe.1, null-rejecting
	var joined []storage.Tuple
	for _, r := range joinOracle(build, probe, 0) {
		if !r[1].IsNull() && !r[4].IsNull() && storage.Equal(r[1], r[4]) {
			joined = append(joined, r)
		}
	}
	proj := []int{5, 2, 0}
	wantProj := project(joined, proj)
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 5}, {Kind: AggMin, Col: 2}, {Kind: AggMax, Col: 5}}

	for _, workers := range []int{1, 2, 4} {
		cfg := ParallelConfig{Workers: workers, MorselSize: 64}
		bt, _, err := ParallelBuildBatches(NewSliceBatches(build, 64), 0, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]PairCol, len(proj))
		for i, c := range proj {
			cols[i] = rowMap[c]
		}
		got, err := bt.ProbeProject(NewSliceBatches(probe, 64), 0, cfg, on, cols)
		if err != nil {
			t.Fatal(err)
		}
		sameMultiset(t, got, wantProj)

		for _, groupCol := range []int{1, 3, -1} { // build side, probe side, global
			want := groupOracle(joined, groupCol, aggs)
			got, err := bt.ProbeAggregate(NewSliceBatches(probe, 64), 0, cfg, on, rowMap, groupCol, aggs, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameMultiset(t, got, want)
		}
	}
}

func TestParallelBuildAbortReturnsExactPrefix(t *testing.T) {
	var build []storage.Tuple
	for i := 0; i < 1000; i++ {
		build = append(build, intTuple(int64(i)))
	}
	src := NewSliceBatches(build, 32)
	cfg := ParallelConfig{Workers: 4, MorselSize: 32}
	bt, prefix, err := ParallelBuildBatches(src, 0, cfg, func(rows int) bool {
		return rows <= 200 // abort once more than 200 rows observed
	})
	if !errors.Is(err, ErrBuildAborted) {
		t.Fatalf("err = %v, want ErrBuildAborted", err)
	}
	if bt != nil {
		t.Fatal("aborted build returned a table")
	}
	if len(prefix) <= 200 {
		t.Fatalf("prefix %d rows, want > 200 (abort fires after the morsel that crossed)", len(prefix))
	}
	// The prefix plus whatever the source still holds must be exactly
	// the input multiset: nothing lost, nothing duplicated.
	rest, err := DrainParallelBatches(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, append(append([]storage.Tuple{}, prefix...), rest...), build)
}

func TestChainBatchesReplaysPrefixThenRest(t *testing.T) {
	var a, b, want []storage.Tuple
	for i := 0; i < 100; i++ {
		a = append(a, intTuple(int64(i)))
		b = append(b, intTuple(int64(1000+i)))
	}
	want = append(append(want, a...), b...)
	src := NewChainBatches(NewSliceBatches(a, 9), NewSliceBatches(b, 9))
	got, err := DrainParallelBatches(src, ParallelConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, want)
}

func TestParallelAggregateMatchesSerial(t *testing.T) {
	var in []storage.Tuple
	for i := 0; i < 2000; i++ {
		in = append(in, intTuple(int64(i%17), int64(i), int64(i%5)))
	}
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 1}, {Kind: AggMin, Col: 1},
		{Kind: AggMax, Col: 1}, {Kind: AggAvg, Col: 2}}
	for _, groupCol := range []int{0, -1} {
		want := groupOracle(in, groupCol, aggs)
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := ParallelHashAggregateBatches(NewSliceBatches(in, 128), groupCol, aggs, nil,
				ParallelConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			sameMultiset(t, got, want)
		}
	}
}

// TestGroupKeysFollowJoinKeySemantics: GROUP BY keys its groups as the
// hash join keys its matches — -0 with +0, every NaN together, numeric
// kinds by float image, strings apart from numbers — plus one group for
// all NULLs; and the value a group shows does not depend on arrival
// order, at one worker or across several.
func TestGroupKeysFollowJoinKeySemantics(t *testing.T) {
	negZero := storage.FloatValue(math.Copysign(0, -1))
	in := []storage.Tuple{
		{negZero}, {storage.FloatValue(0)}, {negZero},
		{storage.FloatValue(math.NaN())}, {storage.FloatValue(-math.NaN())},
		{storage.NullValue()}, {storage.NullValue()},
		{storage.FloatValue(2)}, {storage.IntValue(2)}, {storage.FloatValue(2)},
		{storage.StringValue("2")},
		{storage.StringValue("")},
	}
	want := map[string]int64{ // kind-tagged group value -> COUNT(*)
		"2:0":    3, // -0 and +0, shown as +0
		"2:NaN":  2,
		"0:NULL": 2,
		"1:2":    3, // INT 2 and FLOAT 2, shown as the INT
		"3:2":    1,
		"3:":     1,
	}
	check := func(label string, rows []storage.Tuple) {
		t.Helper()
		got := map[string]int64{}
		for _, r := range rows {
			got[fmt.Sprintf("%d:%s", r[0].Kind, r[0])] = r[1].Int
		}
		if len(rows) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: groups %v, want %v", label, got, want)
		}
		for _, r := range rows {
			if r[0].Kind == storage.KindFloat && r[0].Float == 0 && math.Signbit(r[0].Float) {
				t.Fatalf("%s: the zero group shows -0", label)
			}
		}
	}
	aggs := []AggSpec{{Kind: AggCount}}
	reversed := make([]storage.Tuple, len(in))
	for i, tp := range in {
		reversed[len(in)-1-i] = tp
	}
	for label, rows := range map[string][]storage.Tuple{"serial": in, "serial reversed": reversed} {
		got, err := ParallelHashAggregateBatches(NewSliceBatches(rows, 0), 0, aggs, nil, ParallelConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		check(label, got)
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := ParallelHashAggregateBatches(NewSliceBatches(in, 1), 0, aggs, nil, ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("workers=%d", workers), got)
	}
}

func TestParallelAggregateGlobalOverEmptyInput(t *testing.T) {
	aggs := []AggSpec{{Kind: AggCount}}
	got, err := ParallelHashAggregateBatches(NewSliceBatches(nil, 0), -1, aggs, nil, ParallelConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Int != 0 {
		t.Fatalf("global COUNT over empty input = %v, want [0]", got)
	}
}

func TestDrainParallelPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	src := &erringSource{after: 5, err: boom}
	_, err := DrainParallelBatches(src, ParallelConfig{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

type erringSource struct {
	n     atomic.Int64
	after int64
	err   error
}

func (s *erringSource) NextBatch(b *Batch) (int, error) {
	n := s.n.Add(1)
	if n > s.after {
		return 0, s.err
	}
	b.Tuples = append(b.Tuples[:0], intTuple(n))
	return 1, nil
}

func TestOnWorkerRowCountsAddUp(t *testing.T) {
	var in []storage.Tuple
	for i := 0; i < 640; i++ {
		in = append(in, intTuple(int64(i)))
	}
	var total atomic.Int64
	cfg := ParallelConfig{Workers: 4, MorselSize: 10,
		OnWorker: func(w int, phase string, rows int) {
			if phase != "scan" {
				panic(fmt.Sprintf("phase %q", phase))
			}
			total.Add(int64(rows))
		}}
	if _, err := DrainParallelBatches(NewSliceBatches(in, 10), cfg); err != nil {
		t.Fatal(err)
	}
	if total.Load() != int64(len(in)) {
		t.Fatalf("worker row counts sum to %d, want %d", total.Load(), len(in))
	}
}

// joinOracle is the nested-loop reference for a hash join on column 0
// of build and probe (col < 0: every pair), probe rows outer and build
// rows inner in input order, emitting build ++ probe. Equality is
// storage.Equal rejecting NULL, except that a NaN key matches only NaN
// (Compare calls NaN equal to every number; the join keys it apart).
func joinOracle(build, probe []storage.Tuple, col int) []storage.Tuple {
	nan := func(v storage.Value) bool { return v.Kind == storage.KindFloat && math.IsNaN(v.Float) }
	var out []storage.Tuple
	for _, p := range probe {
		for _, b := range build {
			if col >= 0 {
				bv, pv := b[col], p[col]
				if bv.IsNull() || pv.IsNull() || nan(bv) != nan(pv) || !nan(bv) && !storage.Equal(bv, pv) {
					continue
				}
			}
			out = append(out, append(append(storage.Tuple{}, b...), p...))
		}
	}
	return out
}

// groupOracle is the nested-loop reference for a grouped aggregate:
// each row joins the first group whose value it equals — storage.Equal,
// except that NULL equals only NULL and NaN only NaN — and a group
// shows the totalValueCompare-least of its values. MIN and MAX are the
// first value under ORDER BY and ORDER BY DESC (sortLess). Rows are [group?,
// agg1, ...] in first-seen group order; groupCol < 0 is one global group.
func groupOracle(rows []storage.Tuple, groupCol int, aggs []AggSpec) []storage.Tuple {
	nan := func(v storage.Value) bool { return v.Kind == storage.KindFloat && math.IsNaN(v.Float) }
	same := func(a, b storage.Value) bool {
		if a.IsNull() || b.IsNull() || nan(a) || nan(b) {
			return a.IsNull() == b.IsNull() && nan(a) == nan(b)
		}
		return storage.Equal(a, b)
	}
	type group struct {
		shown   storage.Value
		members []storage.Tuple
	}
	var groups []*group
	for _, r := range rows {
		var gv storage.Value
		if groupCol >= 0 {
			gv = r[groupCol]
		}
		var g *group
		for _, c := range groups {
			if same(c.shown, gv) {
				g = c
				break
			}
		}
		if g == nil {
			g = &group{shown: gv}
			groups = append(groups, g)
		} else if totalValueCompare(gv, g.shown) < 0 {
			g.shown = gv
		}
		g.members = append(g.members, r)
	}
	if groupCol < 0 && len(groups) == 0 {
		groups = append(groups, &group{})
	}
	var out []storage.Tuple
	for _, g := range groups {
		var t storage.Tuple
		if groupCol >= 0 {
			t = append(t, g.shown)
		}
		for _, sp := range aggs {
			var n int
			var sum float64
			var best storage.Value
			for _, r := range g.members {
				if v := r[sp.Col]; !v.IsNull() {
					// MIN is ORDER BY v's first value, MAX ORDER BY v DESC's.
					o := sortOrder{desc: sp.Kind == AggMax, tie: []int{0}}
					if n == 0 || sortLess(sortKeyOf(v), sortKeyOf(best), storage.Tuple{v}, storage.Tuple{best}, o) {
						best = v
					}
					f, _ := v.AsFloat()
					sum += f
					n++
				}
			}
			switch {
			case sp.Kind == AggCount:
				t = append(t, storage.IntValue(int64(len(g.members))))
			case sp.Kind == AggSum:
				t = append(t, storage.FloatValue(sum))
			case n == 0:
				t = append(t, storage.NullValue())
			case sp.Kind == AggAvg:
				t = append(t, storage.FloatValue(sum/float64(n)))
			default:
				t = append(t, best)
			}
		}
		out = append(out, t)
	}
	return out
}

// sameGroups compares aggregate output as a multiset of rows whose
// values are rendered with their kind, so a group showing 2.0 where the
// oracle shows 2, or -0 for +0, fails.
func sameGroups(t *testing.T, label string, got, want []storage.Tuple) {
	t.Helper()
	render := func(rows []storage.Tuple) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			for _, v := range r {
				out[i] += fmt.Sprintf("%d:%s|", v.Kind, v)
			}
		}
		sort.Strings(out)
		return out
	}
	if g, w := render(got), render(want); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("%s: groups\n got %v\nwant %v", label, g, w)
	}
}

// project lays rows out by out, as the aggregate's out argument does.
func project(rows []storage.Tuple, out []int) []storage.Tuple {
	res := make([]storage.Tuple, len(rows))
	for i, r := range rows {
		for _, c := range out {
			res[i] = append(res[i], r[c])
		}
	}
	return res
}

// TestBuildTableMatchesNestedLoop diffs the flat build table against
// joinOracle over the key corners (NULL, NaN, -0/+0, 2 vs 2.0, bools,
// "", numeric-looking strings, two strings whose hashes collide), heavy
// duplicates, one key, 10,000 keys, a two-row table whose two keys
// share a bucket, and the constant key — through both probe sinks at 1,
// 2, 4 and 8 workers. At one worker the projection must equal the
// oracle in order: duplicate keys come out in build arrival order. The
// aggregate sink is diffed against groupOracle over the oracle's joined
// rows, in its own layout and in a permuted one.
func TestBuildTableMatchesNestedLoop(t *testing.T) {
	collideA, collideB := storage.StringValue("k32728"), storage.StringValue("k261234")
	if keyOf(collideA).hash() != keyOf(collideB).hash() {
		t.Fatal("the colliding pair no longer collides; pick another")
	}
	corners := []storage.Value{storage.NullValue(), storage.FloatValue(math.NaN()),
		storage.FloatValue(-math.NaN()), storage.FloatValue(math.Copysign(0, -1)),
		storage.FloatValue(0), storage.IntValue(0), storage.IntValue(2), storage.FloatValue(2),
		storage.IntValue(1), storage.BoolValue(true), storage.BoolValue(false),
		storage.StringValue(""), storage.StringValue("2"), storage.StringValue("2.0"),
		storage.StringValue("0"), storage.StringValue("NaN"), storage.StringValue("NULL"),
		collideA, collideB}
	keyed := func(n int, key func(i int) storage.Value) []storage.Tuple {
		rows := make([]storage.Tuple, n)
		for i := range rows {
			rows[i] = storage.Tuple{key(i), storage.IntValue(int64(i))}
		}
		return rows
	}
	corner := func(i int) storage.Value { return corners[i%len(corners)] }
	mixed := func(m int) func(int) storage.Value {
		return func(i int) storage.Value {
			if i%2 == 0 {
				return storage.IntValue(int64(i % m))
			}
			return storage.FloatValue(float64(i % m))
		}
	}
	cases := []struct {
		name         string
		build, probe []storage.Tuple
		col          int
	}{
		{"corners", keyed(3*len(corners), corner), keyed(len(corners), corner), 0},
		{"heavy duplicates", keyed(600, mixed(3)), keyed(60, mixed(5)), 0},
		{"one key", keyed(400, func(int) storage.Value { return storage.IntValue(7) }),
			keyed(40, func(i int) storage.Value { return storage.IntValue(int64(7 + i%2)) }), 0},
		{"10000 keys", keyed(10_000, mixed(10_000)),
			keyed(200, func(i int) storage.Value { return storage.IntValue(int64(i * 61 % 12_000)) }), 0},
		{"two rows one bucket", keyed(2, func(i int) storage.Value { return []storage.Value{collideA, collideB}[i] }),
			keyed(5, func(i int) storage.Value { return []storage.Value{collideB, collideA, storage.NullValue()}[i%3] }), 0},
		{"constant key", keyed(2*len(corners), corner), keyed(len(corners), corner), -1},
	}
	rowMap := []PairCol{{Idx: 0}, {Idx: 1}, {Probe: true, Idx: 0}, {Probe: true, Idx: 1}}
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 1}, {Kind: AggMin, Col: 3},
		{Kind: AggMax, Col: 1}, {Kind: AggAvg, Col: 3}}
	for _, tc := range cases {
		want := joinOracle(tc.build, tc.probe, tc.col)
		for _, workers := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("%s, workers=%d", tc.name, workers)
			cfg := ParallelConfig{Workers: workers, MorselSize: 7}
			bt, _, err := ParallelBuildBatches(NewSliceBatches(tc.build, 7), tc.col, cfg, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if bt.Rows() != len(tc.build) {
				t.Fatalf("%s: %d build rows, want %d", label, bt.Rows(), len(tc.build))
			}
			if idx := bt.parts[0].hashIndex; tc.name == "two rows one bucket" && workers == 1 && len(idx.heads) != 2 {
				t.Fatalf("%s: %d buckets, want 2", label, len(idx.heads))
			}
			got, err := bt.ProbeProject(NewSliceBatches(tc.probe, 7), tc.col, cfg, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if workers == 1 {
				if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
					t.Fatalf("%s: serial probe out of build arrival order:\n got %s\nwant %s", label, g, w)
				}
			}
			sameMultiset(t, got, want)
			for _, groupCol := range []int{0, 2, -1} { // build key, probe key, global
				wantAgg := groupOracle(want, groupCol, aggs)
				width := len(wantAgg[0])
				perm := []int{width - 1, 0, width - 1} // reordered, one column twice, one dropped
				for _, out := range [][]int{nil, perm} {
					gotAgg, err := bt.ProbeAggregate(NewSliceBatches(tc.probe, 7), tc.col, cfg, nil, rowMap, groupCol, aggs, out)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					w := wantAgg
					if out != nil {
						w = project(wantAgg, out)
					}
					sameGroups(t, fmt.Sprintf("%s, group=%d, out=%v", label, groupCol, out), gotAgg, w)
				}
			}
		}
	}
}

// TestAggregatePartialsMergeInAnyOrder: the key corners dealt round
// robin to four partial accumulators merge to the same groups — the
// same shown values, MIN and MAX included — whichever partial the
// others fold into, and those groups are groupOracle's. MIN and MAX
// of column 0 meet the ties within a group (2 and 2.0, -0 and 0, NaN
// payloads, 1 and true); those of column 2 meet NaN beside numbers in
// every group and in the global one, the first row of partial 0
// holding a NaN, with an Int/Float tie that SQL cannot store.
func TestAggregatePartialsMergeInAnyOrder(t *testing.T) {
	vals := []storage.Value{storage.FloatValue(math.NaN()), storage.FloatValue(math.Copysign(0, -1)),
		storage.IntValue(2), storage.NullValue(), storage.FloatValue(0), storage.FloatValue(-math.NaN()),
		storage.FloatValue(2), storage.StringValue("2"), storage.IntValue(0), storage.BoolValue(true),
		storage.IntValue(1), storage.NullValue(), storage.StringValue("")}
	nums := []storage.Value{storage.FloatValue(math.NaN()), storage.IntValue(3), storage.FloatValue(math.Copysign(0, -1)),
		storage.FloatValue(0), storage.FloatValue(7), storage.FloatValue(-math.NaN()), storage.FloatValue(3),
		storage.IntValue(7), storage.NullValue()}
	var in []storage.Tuple
	for i := 0; i < 5*len(vals); i++ {
		in = append(in, storage.Tuple{vals[i%len(vals)], storage.IntValue(int64(i)), nums[i%len(nums)]})
	}
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 1}, {Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1},
		{Kind: AggMin, Col: 2}, {Kind: AggMax, Col: 2}}
	const parts = 4
	for _, groupCol := range []int{0, -1} {
		aggs := aggs
		if groupCol == 0 { // column 0 mixes classes, whose order is a total order within a group only
			aggs = append(aggs, AggSpec{Kind: AggMin}, AggSpec{Kind: AggMax})
		}
		for first := 0; first < parts; first++ {
			partials := make([]*aggAccum, parts)
			for p := range partials {
				partials[p] = newAggAccum(groupCol, aggs, nil)
			}
			for i, r := range in {
				partials[i%parts].pair(nil, r)
			}
			partials[0], partials[first] = partials[first], partials[0]
			sameGroups(t, fmt.Sprintf("group=%d, partial %d merged into", groupCol, first),
				mergePartials(partials, nil), groupOracle(in, groupCol, aggs))
		}
	}
}
