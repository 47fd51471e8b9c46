package query

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// seedMessy builds a table whose sort key column is hostile: heavy
// duplicates, NaN, negative zero and NULL floats. NaN and -0 have no
// SQL literal, so those rows go in through the catalog directly.
func seedMessy(t *testing.T, e *Engine) int {
	t.Helper()
	e.MustExec("CREATE TABLE m (k FLOAT, grp INT, val INT)")
	keys := []float64{1, 1, 2, 2, 2, 3, 7.5, -4.25}
	n := 0
	for i := 0; i < 600; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO m VALUES (%g, %d, %d)",
			keys[i%len(keys)], i%7, i))
		n++
	}
	odd := []storage.Value{
		storage.FloatValue(math.NaN()),
		storage.FloatValue(math.NaN()),
		storage.FloatValue(math.Copysign(0, -1)),
		storage.FloatValue(math.Copysign(0, -1)),
		storage.FloatValue(0),
		storage.NullValue(),
		storage.NullValue(),
		storage.NullValue(),
	}
	for i, k := range odd {
		loadRows(t, e.cat, "m", storage.Tuple{k, storage.IntValue(int64(i % 7)), storage.IntValue(int64(1000 + i))})
		n++
	}
	e.MustExec("ANALYZE m")
	return n
}

// rowsOrdered renders result rows in order, kind-tagged, so the
// comparison is byte-for-byte: -0 vs 0 and Int vs Float renderings of
// the same number stay distinguishable.
func rowsOrdered(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, fmt.Sprintf("%d:%s", v.Kind, v.String()))
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func requireSameOrdered(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// TestParallelOrderByMatchesSerial asserts the parallel ORDER BY
// pipeline (worker runs + loser-tree merge, or Top-K heaps under
// LIMIT) emits byte-for-byte the naive evaluator's sequence, across worker
// counts 1/2/4/8 and batch sizes 1/64/1024, on a key column full of
// duplicates, NaN, -0 and NULL.
func TestParallelOrderByMatchesSerial(t *testing.T) {
	e := NewEngine(NewCatalog(), trace.New(), nil)
	n := seedMessy(t, e)

	queries := []string{
		"SELECT k, grp, val FROM m ORDER BY k",
		"SELECT k, grp, val FROM m ORDER BY k DESC",
		"SELECT val, k FROM m ORDER BY k",                              // projection after sort
		"SELECT k, val FROM m ORDER BY k LIMIT 0",                      // LIMIT below
		"SELECT k, val FROM m ORDER BY k LIMIT 9",                      // LIMIT below
		"SELECT k, val FROM m ORDER BY k DESC LIMIT 9",                 // DESC Top-K
		fmt.Sprintf("SELECT k, val FROM m ORDER BY k LIMIT %d", n),     // LIMIT at
		fmt.Sprintf("SELECT k, val FROM m ORDER BY k LIMIT %d", n+100), // LIMIT above
		"SELECT k, val FROM m WHERE val > 100 ORDER BY k DESC LIMIT 5", // filter + Top-K
		"SELECT grp, COUNT(*), SUM(val) FROM m GROUP BY grp ORDER BY grp",
		"SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp DESC LIMIT 3",
	}
	for _, sql := range queries {
		t.Run(sql, func(t *testing.T) {
			want := rowsOrdered(refSelect(t, e, sql, nil))
			requireSameOrdered(t, "MustExec", rowsOrdered(e.MustExec(sql)), want)
			for _, w := range []int{1, 2, 4, 8} {
				for _, batch := range []int{1, 64, 1024} {
					res, rep, err := e.ExecuteSQL(sql, ExecOptions{Workers: w, BatchSize: batch})
					if err != nil {
						t.Fatalf("workers=%d batch=%d: %v", w, batch, err)
					}
					if !rep.Parallel {
						t.Fatalf("workers=%d batch=%d: expected parallel execution", w, batch)
					}
					requireSameOrdered(t, fmt.Sprintf("workers=%d batch=%d", w, batch),
						rowsOrdered(res), want)
				}
			}
		})
	}
}

// TestParallelOrderByUnderReplan covers ORDER BY (and ORDER BY +
// LIMIT) downstream of a join that aborts its build at a safe point
// and replans mid-query: the replayed prefix plus side swap must not
// perturb the final ordered output.
func TestParallelOrderByUnderReplan(t *testing.T) {
	for _, sql := range []string{
		"SELECT b.pad, s.tag FROM big b JOIN small s ON b.k = s.k ORDER BY b.pad",
		"SELECT b.pad, s.tag FROM big b JOIN small s ON b.k = s.k ORDER BY b.pad DESC LIMIT 25",
		"SELECT s.tag, COUNT(*), SUM(b.pad) FROM big b JOIN small s ON b.k = s.k GROUP BY s.tag ORDER BY tag",
	} {
		t.Run(sql, func(t *testing.T) {
			e := NewEngine(NewCatalog(), trace.New(), nil)
			seedParallel(t, e)
			want := rowsOrdered(refSelect(t, e, sql, nil))
			// Lie about big so it is picked as build side and blows the
			// misestimate bound mid-build.
			if err := e.cat.SetStats("big", TableStats{Rows: 3,
				Distinct: map[string]int{"k": 3}}); err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4} {
				for _, batch := range []int{0, 64} {
					res, rep, err := e.ExecuteSQL(sql, ExecOptions{Workers: w, BatchSize: batch})
					if err != nil {
						t.Fatalf("workers=%d batch=%d: %v", w, batch, err)
					}
					if !rep.Adaptive.Replanned {
						t.Fatalf("workers=%d batch=%d: expected a mid-query replan", w, batch)
					}
					requireSameOrdered(t, fmt.Sprintf("workers=%d batch=%d", w, batch),
						rowsOrdered(res), want)
				}
			}
		})
	}
}

// TestOrderByTiesBreakOnOutputRow: ORDER BY key ties break on the
// output row's content (the ExecuteStmt contract), so a column the
// select list drops cannot reorder them — on a bare ordered scan, whose
// workers sort whole table rows, as through a join, whose probe emits
// narrow ones; with and without LIMIT, at any worker count.
func TestOrderByTiesBreakOnOutputRow(t *testing.T) {
	e := NewEngine(NewCatalog(), trace.New(), nil)
	e.MustExec("CREATE TABLE tie (k INT, dropped INT, kept INT)")
	e.MustExec("CREATE TABLE one (k INT)")
	e.MustExec("INSERT INTO tie VALUES (1, 2, 10), (1, 1, 20), (0, 9, 30)")
	e.MustExec("INSERT INTO one VALUES (1), (0)")
	want := map[string][]string{
		"SELECT kept FROM tie ORDER BY k":                                            {"1:30", "1:10", "1:20"},
		"SELECT kept FROM tie ORDER BY k DESC LIMIT 2":                               {"1:10", "1:20"},
		"SELECT t.kept FROM tie t JOIN one o ON t.k = o.k ORDER BY t.k":              {"1:30", "1:10", "1:20"},
		"SELECT t.kept FROM tie t JOIN one o ON t.k = o.k ORDER BY t.k DESC LIMIT 2": {"1:10", "1:20"},
	}
	for sql, rows := range want {
		requireSameOrdered(t, sql+" (naive)", rowsOrdered(refSelect(t, e, sql, nil)), rows)
		for _, w := range []int{1, 4} {
			res, _, err := e.ExecuteSQL(sql, ExecOptions{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			requireSameOrdered(t, fmt.Sprintf("%s workers=%d", sql, w), rowsOrdered(res), rows)
		}
	}
}
