// Golden tests for the plan rendering: the chosen join order, build
// sides and per-scan/per-join estimates are pinned exactly, so any
// planner change shows up as a reviewable diff, and the post-execution
// adaptation summary appended by the adaptive executors is pinned too.
package query

import (
	"fmt"
	"testing"
)

// explainEngine builds three chained tables with exact injected
// statistics so every estimate in the golden strings is derivable by
// hand: r(10) ← s(100) ← t(1000), V(join cols) as set below.
func explainEngine(t *testing.T) *Engine {
	t.Helper()
	e := newEngine(t)
	e.MustExec("CREATE TABLE r (id INT)")
	e.MustExec("CREATE TABLE s (id INT, rid INT)")
	e.MustExec("CREATE TABLE t (sid INT)")
	for name, st := range map[string]TableStats{
		"r": {Rows: 10, Distinct: map[string]int{"id": 10}},
		"s": {Rows: 100, Distinct: map[string]int{"id": 100, "rid": 10}},
		"t": {Rows: 1000, Distinct: map[string]int{"sid": 100}},
	} {
		if err := e.cat.SetStats(name, st); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func explainOf(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	res := e.MustExec("EXPLAIN " + sql)
	if len(res.Rows) != 1 {
		t.Fatalf("explain shape: %v", res.Rows)
	}
	return res.Rows[0][0].Str
}

func TestExplainGoldenGreedyOrder(t *testing.T) {
	e := explainEngine(t)
	// Declared largest-first; greedy seeds at r (10 rows) and walks the
	// chain. |r⋈s| = 10·100/max(10,10) = 100; |⋈t| = 100·1000/max(100,100)
	// = 1000. The joined prefix is always smaller → both build left.
	got := explainOf(t, e,
		"SELECT * FROM t JOIN s ON t.sid = s.id JOIN r ON s.rid = r.id")
	want := "SeqScan(r est=10) -> HashJoin(build=left est=100) -> SeqScan(s est=100)" +
		" -> HashJoin(build=left est=1000) -> SeqScan(t est=1000)"
	if got != want {
		t.Fatalf("plan =\n  %s\nwant\n  %s", got, want)
	}
}

func TestExplainGoldenBuildRight(t *testing.T) {
	e := explainEngine(t)
	// Low-selectivity first edge: V(s.rid) dropped to 2 makes
	// |r⋈s| = 10·100/max(2,10) = 100 ... still prefix-smaller; instead
	// shrink t so the second join builds right: |prefix| = 100 > |t| = 20.
	if err := e.cat.SetStats("t", TableStats{Rows: 20, Distinct: map[string]int{"sid": 20}}); err != nil {
		t.Fatal(err)
	}
	got := explainOf(t, e,
		"SELECT * FROM t JOIN s ON t.sid = s.id JOIN r ON s.rid = r.id")
	// Greedy still seeds r; t (20 rows) attaches before s? No: t is not
	// connected to r, so s must come first; then |prefix| = 100 > 20.
	want := "SeqScan(r est=10) -> HashJoin(build=left est=100) -> SeqScan(s est=100)" +
		" -> HashJoin(build=right est=20) -> SeqScan(t est=20)"
	if got != want {
		t.Fatalf("plan =\n  %s\nwant\n  %s", got, want)
	}
}

func TestExplainGoldenPushdownAndIndex(t *testing.T) {
	e := explainEngine(t)
	e.MustExec("CREATE INDEX ON s (id)")
	// WHERE s.id = 5 → index path on s, selectivity 1/V(id) = 1/100 →
	// est 1. Greedy seeds s now (1 < 10): |s⋈r| = 1·10/10 = 1 (floor);
	// |⋈t| = 1·1000/100 = 10.
	got := explainOf(t, e,
		"SELECT * FROM t JOIN s ON t.sid = s.id JOIN r ON s.rid = r.id WHERE s.id = 5")
	want := "IndexScan(s.id est=1) -> HashJoin(build=left est=1) -> SeqScan(r est=10)" +
		" -> HashJoin(build=left est=10) -> SeqScan(t est=1000)"
	if got != want {
		t.Fatalf("plan =\n  %s\nwant\n  %s", got, want)
	}
}

func TestExplainGoldenAdaptationSummary(t *testing.T) {
	e := scenario3Engine(t)
	res, rep, err := execAdaptive(e, scenario3SQL, AdaptiveConfig{Theta: 3, CheckEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Replanned {
		t.Fatalf("report = %+v", rep)
	}
	// est(big) = 10 (stale), est(small) = 100: greedy seeds big, the
	// join estimate is 10·100/max(V(big.k)=10, V(small.k)=100) = 10.
	// θ·est = 30 → violation at the first safe point, the end of big's
	// first page (104 rows: heap batches are page-granular), swap to
	// small, and the summary records the executed order.
	want := "Parallel(workers=1) SeqScan(big est=10) -> HashJoin(build=left est=10) -> SeqScan(small est=100)" +
		" | adapt: replans=1 trigger=104 build=big->small order=small,big"
	if res.Plan != want {
		t.Fatalf("plan =\n  %s\nwant\n  %s", res.Plan, want)
	}
}

func TestExplainGoldenNoAdaptation(t *testing.T) {
	rep := &AdaptiveReport{}
	if got := rep.Describe(); got != "adapt: none" {
		t.Fatalf("describe = %q", got)
	}
	rep = &AdaptiveReport{Replanned: true, Replans: 2, TriggerRow: 64,
		InitialBuild: "o", FinalBuild: "c", UsedIndex: true,
		ExecutedOrder: []string{"c", "o", "n"}}
	want := "adapt: replans=2 trigger=64 build=o->c index-nl order=c,o,n"
	if got := rep.Describe(); got != want {
		t.Fatalf("describe = %q, want %q", got, want)
	}
}

// TestExplainEstimatesRenderOnEveryScan guards the satellite
// requirement that per-scan estimated rows render for every access
// path shape in one plan.
func TestExplainEstimatesRenderOnEveryScan(t *testing.T) {
	e := explainEngine(t)
	got := explainOf(t, e, "SELECT * FROM r JOIN s ON r.id = s.rid")
	want := "SeqScan(r est=10) -> HashJoin(build=left est=100) -> SeqScan(s est=100)"
	if got != want {
		t.Fatalf("plan =\n  %s\nwant\n  %s", got, want)
	}
	if fmt.Sprint(e.MustExec("EXPLAIN SELECT * FROM r").Rows[0][0].Str) != "SeqScan(r est=10)" {
		t.Fatalf("single-scan explain drifted")
	}
}
