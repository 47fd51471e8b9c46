package query

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// seedParallel builds a fixed dataset for serial/parallel equivalence
// checks. All aggregated columns are INT so partial-aggregation merge
// order cannot perturb results (integer sums are exact in float64).
func seedParallel(t *testing.T, e *Engine) {
	t.Helper()
	e.MustExec("CREATE TABLE users (id INT, city STRING, age INT)")
	e.MustExec("CREATE TABLE orders (id INT, user_id INT, amount INT)")
	e.MustExec("CREATE TABLE big (k INT, pad INT)")
	e.MustExec("CREATE TABLE small (k INT, tag INT)")
	cities := []string{"london", "paris", "tokyo", "oslo"}
	for i := 0; i < 120; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO users VALUES (%d, '%s', %d)",
			i, cities[i%len(cities)], 18+i%50))
	}
	for i := 0; i < 900; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d)",
			i, i%120, (i*37)%500))
	}
	for i := 0; i < 1500; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO big VALUES (%d, %d)", i%40, i))
	}
	for i := 0; i < 60; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO small VALUES (%d, %d)", i%40, i))
	}
	e.MustExec("ANALYZE users")
	e.MustExec("ANALYZE orders")
	e.MustExec("ANALYZE big")
	e.MustExec("ANALYZE small")
}

// refSelect runs sql on the reference executor — the static Volcano
// tree, which shares no execution code with the pipeline under test. It
// is the oracle of every differential test: Exec and MustExec run the
// pipeline too, so an expectation taken from them would compare the
// pipeline with itself. A nil txn reads under a snapshot of its own.
func refSelect(t *testing.T, e *Engine, sql string, txn *storage.Txn) *Result {
	t.Helper()
	if txn == nil {
		txn = e.cat.db.Txns().Begin()
		defer txn.Rollback()
	}
	res, err := e.execSelect(MustParse(sql).(*SelectStmt), txn)
	if err != nil {
		t.Fatalf("reference executor: %s: %v", sql, err)
	}
	return res
}

// execTxn runs one statement inside txn with one worker.
func execTxn(e *Engine, sql string, txn *storage.Txn) (*Result, error) {
	res, _, err := e.ExecuteSQL(sql, ExecOptions{Workers: 1, Txn: txn})
	return res, err
}

// execAdaptive runs one SELECT with one worker under cfg.
func execAdaptive(e *Engine, sql string, cfg AdaptiveConfig) (*Result, *AdaptiveReport, error) {
	res, rep, err := e.ExecuteSQL(sql, ExecOptions{Workers: 1, Adaptive: &cfg})
	if err != nil {
		return nil, nil, err
	}
	return res, &rep.Adaptive, nil
}

// rowsMultiset renders result rows as a sorted multiset.
func rowsMultiset(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestParallelMatchesSerialDeterminism asserts the pipeline returns the
// exact same multiset of rows as the reference executor for a battery
// of seeded scan/filter/aggregation queries, from every entry point,
// inline (one worker) and at 2 and 4 workers. Join tails — projection, aggregate, ORDER BY, with and
// without a mid-query replan — have their own, wider matrix in
// TestFusedTailsMatchSerial.
func TestParallelMatchesSerialDeterminism(t *testing.T) {
	cases := []struct {
		name string
		sql  string
	}{
		{name: "full scan", sql: "SELECT id, city, age FROM users"},
		{name: "filter", sql: "SELECT id, age FROM users WHERE age > 40"},
		{name: "filter empty", sql: "SELECT id FROM users WHERE age > 1000"},
		{name: "join with where", sql: "SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE u.age > 30 AND o.amount > 100"},
		{name: "group count", sql: "SELECT city, COUNT(*) FROM users GROUP BY city"},
		{name: "group sum min max", sql: "SELECT user_id, SUM(amount), MIN(amount), MAX(amount) FROM orders GROUP BY user_id"},
		{name: "global avg int", sql: "SELECT AVG(amount), COUNT(*) FROM orders"},
		{name: "order by unique key limit", sql: "SELECT id, age FROM users ORDER BY id DESC LIMIT 7"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(NewCatalog(256), trace.New(), nil)
			seedParallel(t, e)
			want := rowsMultiset(refSelect(t, e, tc.sql, nil))
			// Sweep worker counts at the default batch size, then batch
			// sizes at 4 workers: results must be invariant to both —
			// batch granularity changes amortisation, never answers
			// (degenerate 1-tuple batches included).
			configs := []struct{ workers, batch int }{
				{1, 0}, {2, 0}, {4, 0}, {1, 1}, {4, 1}, {2, 64}, {4, 64}, {1, 1024}, {4, 1024},
			}
			for i, cc := range configs {
				opts := ExecOptions{Workers: cc.workers, BatchSize: cc.batch}
				res, rep, err := e.ExecuteSQL(tc.sql, opts)
				if i%2 == 1 {
					res, rep, err = e.ExecuteStmt(MustParse(tc.sql), opts)
				}
				if err != nil {
					t.Fatalf("workers=%d batch=%d: %v", cc.workers, cc.batch, err)
				}
				if !rep.Parallel {
					t.Fatalf("workers=%d batch=%d: expected parallel execution", cc.workers, cc.batch)
				}
				if rep.Workers != cc.workers {
					t.Fatalf("rep.Workers = %d, want %d", rep.Workers, cc.workers)
				}
				if rep.Adaptive.Replanned {
					t.Fatalf("workers=%d batch=%d: unexpected replan (report %+v)",
						cc.workers, cc.batch, rep.Adaptive)
				}
				requireSameOrdered(t, fmt.Sprintf("workers=%d batch=%d", cc.workers, cc.batch), rowsMultiset(res), want)
			}
			// The option-less entry points run the same pipeline.
			viaExec, err := e.Exec(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			viaStmt, err := e.ExecStmt(MustParse(tc.sql))
			if err != nil {
				t.Fatal(err)
			}
			for name, res := range map[string]*Result{"Exec": viaExec, "MustExec": e.MustExec(tc.sql), "ExecStmt": viaStmt} {
				requireSameOrdered(t, name, rowsMultiset(res), want)
			}
		})
	}
}

// TestParallelIndexPathMatchesSerial covers the index-scan morsel
// adapter: the serialised index cursor must feed the worker pool
// without losing or duplicating rows.
func TestParallelIndexPathMatchesSerial(t *testing.T) {
	e := NewEngine(NewCatalog(256), trace.New(), nil)
	seedParallel(t, e)
	e.MustExec("CREATE INDEX ON orders (user_id)")
	sql := "SELECT id, amount FROM orders WHERE user_id = 7"
	want := rowsMultiset(refSelect(t, e, sql, nil))
	res, rep, err := e.ExecuteSQL(sql, ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Parallel {
		t.Fatal("expected parallel execution")
	}
	got := rowsMultiset(res)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if !strings.Contains(res.Plan, "IndexScan") {
		t.Fatalf("plan %q should use the index", res.Plan)
	}
}

// TestParallelSafePointTrace asserts the protocol's trace shape:
// safepoint events precede the violation, and the reoptimize event
// records the side swap.
func TestParallelSafePointTrace(t *testing.T) {
	log := trace.New()
	e := NewEngine(NewCatalog(256), log, nil)
	seedParallel(t, e)
	if err := e.cat.SetStats("big", TableStats{Rows: 3, Distinct: map[string]int{"k": 3}}); err != nil {
		t.Fatal(err)
	}
	_, rep, err := e.ExecuteSQL("SELECT b.pad, s.tag FROM big b JOIN small s ON b.k = s.k",
		ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Adaptive.Replanned {
		t.Fatalf("expected replanning, report %+v", rep.Adaptive)
	}
	if rep.Adaptive.InitialBuild == rep.Adaptive.FinalBuild {
		t.Fatalf("build side did not swap: %+v", rep.Adaptive)
	}
	if log.Count(trace.KindSafePoint) == 0 {
		t.Fatal("no safepoint events")
	}
	if log.Count(trace.KindViolation) != 1 || log.Count(trace.KindReoptimize) != 1 {
		t.Fatalf("violation/reoptimize counts: %s", log.Summary())
	}
	// Only the safe points that tripped are traced (one per worker at
	// most), each before the violation and the re-route it caused.
	var seq []string
	for _, ev := range log.Events() {
		seq = append(seq, string(ev.Kind))
	}
	if got := strings.Join(seq, " "); !regexp.MustCompile(`^(safepoint ){1,4}violation reoptimize$`).MatchString(got) {
		t.Fatalf("trace sequence %q, want tripped safe points, then violation, then reoptimize", got)
	}
}

// TestTraceStaysFlatWithoutAdaptation: the engine's trace records
// decisions, not progress. A serving engine keeps its log for its whole
// life, so statements that do not adapt — point, scan and join SELECTs
// at several workers — must add nothing to it.
func TestTraceStaysFlatWithoutAdaptation(t *testing.T) {
	e := NewEngine(NewCatalog(256), trace.New(), nil)
	seedParallel(t, e)
	e.MustExec("CREATE INDEX ON users (id)")
	before := e.Trace().Len()
	for i := 0; i < 1000; i++ {
		for _, sql := range []string{
			fmt.Sprintf("SELECT city, age FROM users WHERE id = %d", i%120),
			fmt.Sprintf("SELECT id, amount FROM orders WHERE amount > %d", i%500),
			"SELECT u.city, COUNT(*) FROM users u JOIN orders o ON u.id = o.user_id GROUP BY u.city",
		} {
			_, rep, err := e.ExecuteSQL(sql, ExecOptions{Workers: 4})
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if rep.Adaptive.Replanned {
				t.Fatalf("%s: unexpected replan %+v", sql, rep.Adaptive)
			}
		}
	}
	if n := e.Trace().Len(); n != before {
		t.Fatalf("trace grew by %d events over 3000 statements without a replan: %s", n-before, e.Trace().Summary())
	}
}

// TestIndexDrainRunsInline: a bare index scan runs at one worker
// whatever Workers asks — its source serialises the index cursor — and
// the report and the executed plan say so; anything more than a drain
// keeps the requested workers.
func TestIndexDrainRunsInline(t *testing.T) {
	e := NewEngine(NewCatalog(256), trace.New(), nil)
	seedParallel(t, e)
	e.MustExec("CREATE INDEX ON orders (user_id)")
	for sql, want := range map[string]int{
		"SELECT id, amount FROM orders WHERE user_id = 7":                                1,
		"SELECT id, amount FROM orders WHERE user_id = 7 ORDER BY amount":                4,
		"SELECT COUNT(*) FROM orders WHERE user_id = 7":                                  4,
		"SELECT id, amount FROM orders WHERE amount = 7":                                 4,
		"SELECT o.id FROM orders o JOIN users u ON o.user_id = u.id WHERE o.user_id = 7": 4,
	} {
		res, rep, err := e.ExecuteSQL(sql, ExecOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if rep.Workers != want || !strings.HasPrefix(res.Plan, fmt.Sprintf("Parallel(workers=%d) ", want)) {
			t.Fatalf("%s: report workers %d, plan %q; want %d", sql, rep.Workers, res.Plan, want)
		}
		requireSameOrdered(t, sql, rowsMultiset(res), rowsMultiset(refSelect(t, e, sql, nil)))
	}
}

// TestParallelNonSelectFallsBack checks DML passes straight through.
func TestParallelNonSelectFallsBack(t *testing.T) {
	e := NewEngine(NewCatalog(64), trace.New(), nil)
	e.MustExec("CREATE TABLE t (x INT)")
	res, rep, err := e.ExecuteSQL("INSERT INTO t VALUES (1), (2)", ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Parallel || res.Affected != 2 {
		t.Fatalf("rep=%+v res=%+v", rep, res)
	}
}
