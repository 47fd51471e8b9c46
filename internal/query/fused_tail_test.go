package query

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/adm-project/adm/internal/trace"
)

// seedFused builds the dataset of the fused-tail differential test: a
// 1,500-row fact table and a 60-row dimension joined on k, plus a third
// table hanging off the dimension's name. Join keys, group columns and
// aggregate arguments all contain NULLs. Aggregated columns are INT so
// the merge order of partial aggregates cannot perturb sums.
func seedFused(t *testing.T, e *Engine) {
	t.Helper()
	e.MustExec("CREATE TABLE fact (k INT, v INT, tag STRING)")
	e.MustExec("CREATE TABLE dim (k INT, name STRING, w INT)")
	e.MustExec("CREATE TABLE third (name STRING, z INT)")
	lit := func(null bool, s string) string {
		if null {
			return "NULL"
		}
		return s
	}
	for i := 0; i < 1500; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO fact VALUES (%s, %s, %s)",
			lit(i%17 == 0, fmt.Sprint(i%40)),
			lit(i%11 == 0, fmt.Sprint(i)),
			lit(i%29 == 0, fmt.Sprintf("'t%d'", i%6))))
	}
	names := []string{"ash", "birch", "cedar", "elm", "fir"}
	for i := 0; i < 60; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO dim VALUES (%s, %s, %s)",
			lit(i%13 == 0, fmt.Sprint(i%45)),
			lit(i%19 == 0, "'"+names[i%len(names)]+"'"),
			lit(i%7 == 0, fmt.Sprint(i*3))))
	}
	for i, n := range append(names, "oak") {
		e.MustExec(fmt.Sprintf("INSERT INTO third VALUES ('%s', %d)", n, i%3))
	}
	e.MustExec("INSERT INTO third VALUES (NULL, 9)")
	for _, tb := range []string{"fact", "dim", "third"} {
		e.MustExec("ANALYZE " + tb)
	}
}

// lieAboutFact makes the optimiser believe fact is tiny, so it becomes
// a build side and blows through Theta × estimate at a safe point.
func lieAboutFact(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.cat.SetStats("fact", TableStats{Rows: 3, Distinct: map[string]int{"k": 3}}); err != nil {
		t.Fatal(err)
	}
}

// TestFusedTailsMatchSerial is the differential test of the probe
// sinks: every tail that fuses into the final probe (aggregate, ORDER
// BY … LIMIT, plain projection, global aggregate over an empty join,
// multi-join aggregate) must return the naive evaluator's rows in every
// execution configuration — worker counts, batch sizes, either build
// side, with and without a mid-query replan, and with the group column
// on either side of the match.
func TestFusedTailsMatchSerial(t *testing.T) {
	const two = "FROM fact f JOIN dim d ON f.k = d.k"
	const twoFlipped = "FROM dim d JOIN fact f ON f.k = d.k"
	const three = "FROM fact f JOIN dim d ON f.k = d.k JOIN third t ON d.name = t.name"
	const threeFlipped = "FROM third t JOIN dim d ON d.name = t.name JOIN fact f ON f.k = d.k"
	// No ON equality touches third, so it attaches cartesian (in the
	// flipped clause, as the very first step) and the second equality is
	// a residual checked on each f-d match; f.v and d.w both hold NULLs.
	const cross = "FROM fact f JOIN dim d ON f.k = d.k JOIN third t ON f.v = d.w"
	const crossFlipped = "FROM third t JOIN dim d ON f.v = d.w JOIN fact f ON f.k = d.k"
	cases := []struct {
		name string
		sql  string // %s = the FROM clause
		from []string
		// replans: a lie about fact must trigger a safe-point replan (not
		// so when a WHERE empties the lied-about build side).
		replans bool
	}{
		{"aggregate, group on the dimension", "SELECT d.name, COUNT(*), SUM(f.v), MIN(f.v), MAX(d.w) %s GROUP BY d.name",
			[]string{two, twoFlipped}, true},
		{"aggregate, group on the fact", "SELECT f.tag, COUNT(*), SUM(d.w), AVG(f.v) %s GROUP BY f.tag",
			[]string{two, twoFlipped}, true},
		{"aggregate with pushed-down filters", "SELECT d.name, COUNT(*), MAX(f.v) %s WHERE f.v > 300 AND d.w > 20 GROUP BY d.name",
			[]string{two, twoFlipped}, true},
		{"global aggregate", "SELECT COUNT(*), SUM(f.v), MIN(d.w) %s",
			[]string{two, twoFlipped}, true},
		{"order by limit", "SELECT f.v, d.name %s ORDER BY f.v DESC LIMIT 25",
			[]string{two, twoFlipped}, true},
		{"order by a column outside the select list", "SELECT d.name, f.tag %s ORDER BY f.v DESC LIMIT 40",
			[]string{two, twoFlipped}, true},
		{"order by without limit", "SELECT f.v, d.w %s ORDER BY d.w",
			[]string{two, twoFlipped}, true},
		{"projection", "SELECT f.v, d.name, f.tag %s",
			[]string{two, twoFlipped}, true},
		{"star", "SELECT * %s",
			[]string{two, twoFlipped}, true},
		{"global aggregate over an empty join", "SELECT COUNT(*), SUM(f.v), MAX(d.w) %s WHERE f.v < 0",
			[]string{two, twoFlipped, three, threeFlipped}, false},
		{"three-table aggregate", "SELECT t.z, COUNT(*), SUM(f.v), MAX(d.w) %s GROUP BY t.z",
			[]string{three, threeFlipped}, true},
		{"three-table aggregate, group on the fact", "SELECT f.tag, COUNT(*), SUM(t.z) %s GROUP BY f.tag",
			[]string{three, threeFlipped}, true},
		{"three-table order by limit", "SELECT f.v, t.z, d.name %s ORDER BY f.v DESC LIMIT 30",
			[]string{three, threeFlipped}, true},
		{"cartesian attach, residual ON: projection", "SELECT f.v, d.name, t.name, t.z %s",
			[]string{cross, crossFlipped}, true},
		{"cartesian attach, residual ON: aggregate", "SELECT t.z, COUNT(*), SUM(f.v), MAX(d.w) %s GROUP BY t.z",
			[]string{cross, crossFlipped}, true},
		{"cartesian attach, residual ON: order by limit", "SELECT t.name, f.v %s ORDER BY f.v DESC LIMIT 5",
			[]string{cross, crossFlipped}, true},
	}
	for _, tc := range cases {
		for _, from := range tc.from {
			sql := fmt.Sprintf(tc.sql, from)
			for _, lie := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/lie=%v", tc.name, strings.Fields(from)[1], lie), func(t *testing.T) {
					e := NewEngine(NewCatalog(), trace.New(), nil)
					seedFused(t, e)
					want := rowsMultiset(refSelect(t, e, sql, nil))
					if lie {
						lieAboutFact(t, e)
					}
					for _, w := range []int{1, 2, 4} {
						for _, batch := range []int{1, 64, 1024} {
							// Declared order pins the build side to the FROM
							// clause's smaller table: left in one clause, right
							// in the flipped one (and the reverse under the lie).
							res, rep, err := e.ExecuteSQL(sql, ExecOptions{
								Workers: w, BatchSize: batch, JoinOrder: JoinOrderDeclared})
							label := fmt.Sprintf("workers=%d batch=%d", w, batch)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if !rep.Parallel {
								t.Fatalf("%s: expected parallel execution", label)
							}
							if wantReplan := lie && tc.replans; rep.Adaptive.Replanned != wantReplan {
								t.Fatalf("%s: Replanned = %v, want %v (%+v)", label,
									rep.Adaptive.Replanned, wantReplan, rep.Adaptive)
							}
							requireSameOrdered(t, label, rowsMultiset(res), want)
						}
					}
				})
			}
		}
	}
}

// TestFusedProbePanicDegradesToSerial blows up a worker inside the
// final, sink-feeding probe of a staged multi-join (the single-join
// probe is covered by TestWorkerPanicDegradesToSerial's phase
// discovery), and inside the constant-key probe of a cartesian attach,
// and requires the naive evaluator's rows back from the one-worker
// re-run.
func TestFusedProbePanicDegradesToSerial(t *testing.T) {
	for sql, nth := range map[string]int32{
		// Two joins at two workers finish four probe phases; the last to
		// finish belongs to the final probe.
		"SELECT t.z, COUNT(*), SUM(f.v) FROM fact f JOIN dim d ON f.k = d.k JOIN third t ON d.name = t.name GROUP BY t.z": 4,
		"SELECT f.v, t.z FROM fact f JOIN dim d ON f.k = d.k JOIN third t ON d.name = t.name ORDER BY f.v DESC LIMIT 10":  4,
		// Nothing connects third, the smallest table: the router seeds it
		// and the first probe to finish is the cartesian third × dim.
		"SELECT t.z, COUNT(*), SUM(f.v) FROM fact f JOIN dim d ON f.k = d.k JOIN third t ON f.v = d.w GROUP BY t.z": 1,
	} {
		t.Run(sql, func(t *testing.T) {
			log := trace.New()
			e := NewEngine(NewCatalog(), log, nil)
			seedFused(t, e)
			want := rowsMultiset(refSelect(t, e, sql, nil))
			var probes atomic.Int32
			res, rep, err := e.ExecuteSQL(sql, ExecOptions{
				Workers: 2,
				panicInWorker: func(w int, phase string, _ int) {
					if phase == "probe" && probes.Add(1) == nth {
						panic("injected failure in the fused probe")
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			requireDegraded(t, "fused probe", res, rep)
			if log.Count(trace.KindPanic) != 1 {
				t.Fatalf("panic trace events = %d, want 1", log.Count(trace.KindPanic))
			}
			requireSameOrdered(t, "after containment", rowsMultiset(res), want)
		})
	}
}
