// Multi-join planner + staged-router tests: greedy ordering, chains of
// 3-5 joins, ON/WHERE resolution edge cases, the workers × batch-size
// determinism matrix under forced replans, and the txn-snapshot
// variant (HeapView readers must survive join reordering).
package query

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// seedChain builds the 4-table chain a(5) ← b(10) ← c(20) ← d(3):
// a.x = b.x, b.y = c.y, c.z = d.z (z = y mod 3).
func seedChain(t *testing.T, e *Engine) {
	t.Helper()
	e.MustExec("CREATE TABLE a (x INT)")
	e.MustExec("CREATE TABLE b (x INT, y INT)")
	e.MustExec("CREATE TABLE c (y INT, z INT)")
	e.MustExec("CREATE TABLE d (z INT)")
	for i := 0; i < 5; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO a VALUES (%d)", i))
	}
	for i := 0; i < 10; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", i, i*2))
	}
	for i := 0; i < 20; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO c VALUES (%d, %d)", i, i%3))
	}
	for i := 0; i < 3; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO d VALUES (%d)", i))
	}
	for _, tbl := range []string{"a", "b", "c", "d"} {
		e.MustExec("ANALYZE " + tbl)
	}
}

// TestJoinChains runs 3-, 4- and 5-way chains through parser, greedy
// planner and pipeline, with ON clauses referencing earlier
// (not just adjacent) bindings.
func TestJoinChains(t *testing.T) {
	e := newEngine(t)
	seedChain(t, e)
	e.MustExec("CREATE TABLE w (x INT)") // 5th table, joins back to a.x
	for i := 0; i < 5; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO w VALUES (%d)", i))
	}
	e.MustExec("ANALYZE w")

	// 3-way: a ⋈ b ⋈ c. Every a.x matches one b row; b.y = 2x ∈ c.y.
	res := e.MustExec("SELECT a.x, c.z FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y ORDER BY a.x")
	if len(res.Rows) != 5 {
		t.Fatalf("3-way rows = %v (plan %s)", res.Rows, res.Plan)
	}
	for i, r := range res.Rows {
		if r[0].Int != int64(i) || r[1].Int != int64((i*2)%3) {
			t.Fatalf("3-way row %d = %v", i, r)
		}
	}

	// 4-way adds d on c.z: every z ∈ {0,1,2} matches.
	res = e.MustExec("SELECT a.x, d.z FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y JOIN d ON c.z = d.z ORDER BY a.x")
	if len(res.Rows) != 5 {
		t.Fatalf("4-way rows = %v (plan %s)", res.Rows, res.Plan)
	}

	// 5-way: the last ON references the FIRST binding (a.x), not its
	// predecessor — resolution is against the full join schema.
	res = e.MustExec("SELECT a.x, w.x FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y JOIN d ON c.z = d.z JOIN w ON a.x = w.x ORDER BY a.x")
	if len(res.Rows) != 5 {
		t.Fatalf("5-way rows = %v (plan %s)", res.Rows, res.Plan)
	}
	for i, r := range res.Rows {
		if r[0].Int != r[1].Int || r[0].Int != int64(i) {
			t.Fatalf("5-way row %d = %v", i, r)
		}
	}
}

// TestSelfJoinAliases: the same table twice needs distinct bindings;
// with them, a self join works.
func TestSelfJoinAliases(t *testing.T) {
	e := newEngine(t)
	seedChain(t, e)
	if _, err := e.Exec("SELECT * FROM a JOIN a ON a.x = a.x"); err == nil ||
		!strings.Contains(err.Error(), "duplicate table binding") {
		t.Fatalf("got %v", err)
	}
	res := e.MustExec("SELECT a1.x, a2.x FROM a a1 JOIN a a2 ON a1.x = a2.x")
	if len(res.Rows) != 5 {
		t.Fatalf("self-join rows = %v", res.Rows)
	}
}

// TestJoinResolutionErrors covers unknown and ambiguous ON columns and
// same-table ON equalities.
func TestJoinResolutionErrors(t *testing.T) {
	e := newEngine(t)
	e.MustExec("CREATE TABLE p (k INT, v INT)")
	e.MustExec("CREATE TABLE q (k INT, w INT)")
	if _, err := e.Exec("SELECT * FROM p JOIN q ON p.zz = q.k"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("unknown ON column: got %v", err)
	}
	// Unqualified `k` exists in both p and q.
	if _, err := e.Exec("SELECT * FROM p JOIN q ON k = q.k"); !errors.Is(err, ErrNoColumn) ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous ON column: got %v", err)
	}
	// Both sides on one table is a plan-time error, not a filter.
	if _, err := e.Exec("SELECT * FROM p JOIN q ON p.k = p.v"); err == nil ||
		!strings.Contains(err.Error(), "does not span two tables") {
		t.Fatalf("same-table ON: got %v", err)
	}
}

// TestWherePushdownAmbiguity is the satellite-1 regression: an
// unqualified WHERE column present in two joined tables used to bind
// silently to the first scan; it must be an ambiguity error, while the
// qualified form pushes down fine.
func TestWherePushdownAmbiguity(t *testing.T) {
	e := newEngine(t)
	e.MustExec("CREATE TABLE p (k INT, v INT)")
	e.MustExec("CREATE TABLE q (k INT, w INT)")
	e.MustExec("INSERT INTO p VALUES (1, 10), (2, 20)")
	e.MustExec("INSERT INTO q VALUES (1, 100), (2, 200)")
	if _, err := e.Exec("SELECT p.v FROM p JOIN q ON p.k = q.k WHERE k = 1"); !errors.Is(err, ErrNoColumn) ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("unqualified ambiguous WHERE: got %v", err)
	}
	res := e.MustExec("SELECT p.v, q.w FROM p JOIN q ON p.k = q.k WHERE q.k = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 10 || res.Rows[0][1].Int != 100 {
		t.Fatalf("qualified WHERE rows = %v", res.Rows)
	}
	// A column unique to one table still pushes down unqualified.
	res = e.MustExec("SELECT p.k FROM p JOIN q ON p.k = q.k WHERE w = 200")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 2 {
		t.Fatalf("unique unqualified WHERE rows = %v", res.Rows)
	}
}

// TestCrossJoinLastResort: a join clause whose ON equality does not
// touch the joined table leaves that table disconnected — the planner
// attaches it cartesian and the duplicate edge becomes a residual
// filter.
func TestCrossJoinLastResort(t *testing.T) {
	e := newEngine(t)
	e.MustExec("CREATE TABLE m (x INT)")
	e.MustExec("CREATE TABLE n (x INT)")
	e.MustExec("CREATE TABLE u (v INT)")
	e.MustExec("INSERT INTO m VALUES (0), (1), (2)")
	e.MustExec("INSERT INTO n VALUES (0), (1), (2)")
	e.MustExec("INSERT INTO u VALUES (10), (20)")
	const sql = "SELECT m.x, u.v FROM m JOIN n ON m.x = n.x JOIN u ON m.x = n.x"
	want := rowsMultiset(refSelect(t, e, sql, nil))
	if len(want) != 6 { // 3 matched pairs × 2 u rows
		t.Fatalf("rows = %v", want)
	}
	// Routed, or following the static plan's cross step verbatim.
	for _, disabled := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			res, _, err := e.ExecuteSQL(sql, ExecOptions{Workers: workers, Adaptive: &AdaptiveConfig{Disabled: disabled}})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(res.Plan, "CrossJoin") {
				t.Fatalf("plan = %s", res.Plan)
			}
			requireSameOrdered(t, fmt.Sprintf("disabled=%v workers=%d", disabled, workers), rowsMultiset(res), want)
		}
	}
}

// TestResidualEqualityKeysLikeTheHashCondition: an ON equality left
// residual (checked on each match) compares as join keys do, as it
// would as the hash condition — NULL matches nothing, and NaN matches
// only NaN, although storage.Compare calls it equal to every number.
func TestResidualEqualityKeysLikeTheHashCondition(t *testing.T) {
	e := newEngine(t)
	e.MustExec("CREATE TABLE m (x INT, y FLOAT)")
	e.MustExec("CREATE TABLE n (x INT, y FLOAT)")
	e.MustExec("CREATE TABLE u (v INT)")
	nan := storage.FloatValue(math.NaN())
	loadRows(t, e.cat, "m", storage.Tuple{storage.IntValue(1), nan}, storage.Tuple{storage.IntValue(2), storage.FloatValue(5)},
		storage.Tuple{storage.IntValue(3), nan}, storage.Tuple{storage.IntValue(4), storage.NullValue()})
	loadRows(t, e.cat, "n", storage.Tuple{storage.IntValue(1), storage.FloatValue(5)}, storage.Tuple{storage.IntValue(2), nan},
		storage.Tuple{storage.IntValue(3), nan}, storage.Tuple{storage.IntValue(4), storage.NullValue()})
	e.MustExec("INSERT INTO u VALUES (10), (20)")
	const sql = "SELECT m.x, u.v FROM m JOIN n ON m.x = n.x JOIN u ON m.y = n.y"
	want := []string{"3|10", "3|20"} // only the NaN-NaN pair survives
	requireSameOrdered(t, "naive", rowsMultiset(refSelect(t, e, sql, nil)), want)
	for _, workers := range []int{1, 4} {
		res, _, err := e.ExecuteSQL(sql, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan, "filters=1") {
			t.Fatalf("the y equality is not residual: %s", res.Plan)
		}
		requireSameOrdered(t, fmt.Sprintf("workers=%d", workers), rowsMultiset(res), want)
	}
}

// seedStar builds the 4-table star-chain used by the determinism
// matrix: nation(6) ← customer(60) ← orders(300) ← lineitem(1200).
func seedStar(t *testing.T, e *Engine) {
	t.Helper()
	e.MustExec("CREATE TABLE nation (id INT, region INT)")
	e.MustExec("CREATE TABLE customer (id INT, n_id INT)")
	e.MustExec("CREATE TABLE orders (id INT, c_id INT)")
	e.MustExec("CREATE TABLE lineitem (id INT, o_id INT, qty INT)")
	for i := 0; i < 6; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO nation VALUES (%d, %d)", i, i%3))
	}
	for i := 0; i < 60; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO customer VALUES (%d, %d)", i, i%6))
	}
	for i := 0; i < 300; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d)", i, i%60))
	}
	for i := 0; i < 1200; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO lineitem VALUES (%d, %d, %d)", i, i%300, (i*7)%13))
	}
	for _, tbl := range []string{"nation", "customer", "orders", "lineitem"} {
		e.MustExec("ANALYZE " + tbl)
	}
}

// The deliberately mis-ordered 4-table join: largest table first.
const starSQL = "SELECT c.id, l.qty FROM lineitem l JOIN orders o ON l.o_id = o.id" +
	" JOIN customer c ON o.c_id = c.id JOIN nation n ON c.n_id = n.id WHERE n.region = 1"

// TestMultiJoinDeterminismMatrix runs the 4-table join across
// workers 1/4 × batch 1/64/1024 with stale statistics forcing
// mid-query re-routing; the result multiset must match the naive
// evaluator everywhere, and the ORDER BY variant must be byte-identical.
func TestMultiJoinDeterminismMatrix(t *testing.T) {
	queries := []struct {
		name string
		sql  string
	}{
		{"plain", starSQL},
		{"ordered", starSQL + " ORDER BY l.id"},
		{"aggregate", "SELECT n.id, COUNT(*), SUM(l.qty) FROM lineitem l JOIN orders o ON l.o_id = o.id" +
			" JOIN customer c ON o.c_id = c.id JOIN nation n ON c.n_id = n.id GROUP BY n.id ORDER BY id"},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			e := NewEngine(NewCatalog(), trace.New(), nil)
			seedStar(t, e)
			want := rowsMultiset(refSelect(t, e, q.sql, nil))
			// Stale statistics: orders claimed tiny → the router's first
			// build blows through θ·est and must re-route.
			if err := e.cat.SetStats("orders", TableStats{Rows: 2,
				Distinct: map[string]int{"id": 2, "c_id": 2}}); err != nil {
				t.Fatal(err)
			}
			for _, cc := range []struct{ workers, batch int }{
				{1, 0}, {1, 1}, {1, 64}, {1, 1024}, {4, 0}, {4, 1}, {4, 64}, {4, 1024},
			} {
				res, rep, err := e.ExecuteSQL(q.sql, ExecOptions{Workers: cc.workers, BatchSize: cc.batch})
				if err != nil {
					t.Fatalf("workers=%d batch=%d: %v", cc.workers, cc.batch, err)
				}
				if !rep.Parallel {
					t.Fatalf("workers=%d batch=%d: expected the staged parallel path", cc.workers, cc.batch)
				}
				if !rep.Adaptive.Replanned || rep.Adaptive.Replans < 1 {
					t.Fatalf("workers=%d batch=%d: expected forced re-routing, report %+v",
						cc.workers, cc.batch, rep.Adaptive)
				}
				// The whole executed order is reported, and summarised on the plan.
				if len(rep.Adaptive.ExecutedOrder) != 4 || !strings.Contains(res.Plan, "adapt: replans=") {
					t.Fatalf("workers=%d batch=%d: order %v, plan %s", cc.workers, cc.batch, rep.Adaptive.ExecutedOrder, res.Plan)
				}
				label := fmt.Sprintf("workers=%d batch=%d", cc.workers, cc.batch)
				requireSameOrdered(t, label, rowsMultiset(res), want)
				if strings.Contains(q.sql, "ORDER BY") {
					// Ordered output: compare positionally, byte for byte.
					requireSameOrdered(t, label+" ordered", rowsOrdered(res), rowsOrdered(refSelect(t, e, q.sql, nil)))
				}
			}
		})
	}
}

// TestMultiJoinDeclaredOrderKnob: JoinOrderDeclared + Disabled runs
// the pipeline exactly as written, with no adaptation — the
// mis-ordered baseline the benchmarks compare against. The answer is
// unchanged.
func TestMultiJoinDeclaredOrderKnob(t *testing.T) {
	e := NewEngine(NewCatalog(), trace.New(), nil)
	seedStar(t, e)
	want := rowsMultiset(refSelect(t, e, starSQL, nil))
	res, rep, err := e.ExecuteSQL(starSQL, ExecOptions{
		Workers: 4, JoinOrder: JoinOrderDeclared, Adaptive: &AdaptiveConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adaptive.Replanned {
		t.Fatalf("disabled adaptation still replanned: %+v", rep.Adaptive)
	}
	if !strings.Contains(res.Plan, "SeqScan(l est=") ||
		strings.Index(res.Plan, "SeqScan(l") > strings.Index(res.Plan, "SeqScan(n") {
		t.Fatalf("declared order not preserved: %s", res.Plan)
	}
	got := rowsMultiset(res)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("declared-order answer drifted")
	}
	// Greedy (the default) starts somewhere smaller than lineitem.
	greedy, _, err := e.ExecuteSQL(starSQL, ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(strings.TrimPrefix(greedy.Plan, "Parallel(workers=4) "), "SeqScan(l ") {
		t.Fatalf("greedy kept the mis-ordered seed: %s", greedy.Plan)
	}
}

// TestMultiJoinTxnSnapshot: a transaction begun before concurrent
// committed inserts keeps its snapshot through the staged multi-join
// router at every worker count — HeapView readers survive join
// reordering and mid-query re-routing.
func TestMultiJoinTxnSnapshot(t *testing.T) {
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewDurableCatalog(db)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat, nil, nil)
	seedStar(t, e)
	sql := starSQL
	old := db.Txns().Begin()
	wantOld := rowsMultiset(refSelect(t, e, sql, nil))

	// Concurrent committed writes after old's snapshot: more region-1
	// customers and lineitems.
	writer := db.Txns().Begin()
	if _, err := execTxn(e, "INSERT INTO customer VALUES (60, 1)", writer); err != nil {
		t.Fatal(err)
	}
	if _, err := execTxn(e, "INSERT INTO orders VALUES (300, 60)", writer); err != nil {
		t.Fatal(err)
	}
	if _, err := execTxn(e, "INSERT INTO lineitem VALUES (1200, 300, 5)", writer); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// Stale stats so the router re-routes mid-query inside the txn.
	if err := e.cat.SetStats("orders", TableStats{Rows: 2,
		Distinct: map[string]int{"id": 2, "c_id": 2}}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, rep, err := e.ExecuteSQL(sql, ExecOptions{Workers: workers, Txn: old})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Adaptive.Replanned {
			t.Fatalf("workers=%d: expected re-routing, report %+v", workers, rep.Adaptive)
		}
		got := rowsMultiset(res)
		if fmt.Sprint(got) != fmt.Sprint(wantOld) {
			t.Fatalf("workers=%d: snapshot drift: %d rows vs %d", workers, len(got), len(wantOld))
		}
	}
	// A fresh transaction sees the committed writes.
	fresh := db.Txns().Begin()
	res, _, err := e.ExecuteSQL(sql, ExecOptions{Workers: 4, Txn: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(wantOld)+1 {
		t.Fatalf("fresh txn rows = %d, want %d", len(res.Rows), len(wantOld)+1)
	}
}
