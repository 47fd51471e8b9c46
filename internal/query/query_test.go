package query

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// loadRows inserts rows into table in one committed transaction.
func loadRows(t testing.TB, cat *Catalog, table string, rows ...storage.Tuple) {
	t.Helper()
	txn := cat.db.Txns().Begin()
	for _, row := range rows {
		if _, err := cat.InsertTxn(table, row, txn); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(NewCatalog(256), trace.New(), nil)
}

func seedShop(t *testing.T, e *Engine) {
	t.Helper()
	e.MustExec("CREATE TABLE users (id INT, name STRING, city STRING, age INT)")
	e.MustExec("CREATE TABLE orders (id INT, user_id INT, total FLOAT)")
	for i := 0; i < 50; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO users VALUES (%d, 'user%d', '%s', %d)",
			i, i, []string{"london", "paris", "tokyo"}[i%3], 20+i%40))
	}
	for i := 0; i < 200; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d.5)", i, i%50, i))
	}
	e.MustExec("ANALYZE users")
	e.MustExec("ANALYZE orders")
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROBNICATE",
		"SELECT FROM t",
		"SELECT * t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE x ~ 1",
		"SELECT * FROM t LIMIT x",
		"SELECT SUM(*) FROM t",
		"INSERT t VALUES (1)",
		"INSERT INTO t VALUES 1",
		"UPDATE t SET",
		"DELETE t",
		"CREATE VIEW v",
		"CREATE TABLE t (x BANANA)",
		"SELECT * FROM t; garbage",
		"SELECT * FROM t WHERE s = 'unterminated",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestParseSelectShape(t *testing.T) {
	st := MustParse(`SELECT u.name, COUNT(*), SUM(o.total) FROM users u
		JOIN orders o ON u.id = o.user_id
		WHERE u.age > 30 AND u.city = 'london'
		GROUP BY u.name ORDER BY u.name DESC LIMIT 10`).(*SelectStmt)
	if len(st.Items) != 3 || st.Items[1].AggStar || st.Items[1].Agg != AggCount {
		// COUNT(*) has AggStar = true
		if !st.Items[1].AggStar {
			t.Fatalf("items = %+v", st.Items)
		}
	}
	if st.From.Alias != "u" || len(st.Joins) != 1 || st.Joins[0].Table.Alias != "o" {
		t.Fatalf("from/joins = %+v %+v", st.From, st.Joins)
	}
	if len(st.Where) != 2 || st.Where[0].Op != OpGT || st.Where[1].Lit.Str != "london" {
		t.Fatalf("where = %+v", st.Where)
	}
	if st.GroupBy == nil || st.OrderBy == nil || !st.Desc || st.Limit != 10 {
		t.Fatalf("tail clauses: %+v", st)
	}
}

func TestParseLiteralsAndEscapes(t *testing.T) {
	st := MustParse(`INSERT INTO t VALUES (1, -2, 3.5, 'it''s', TRUE, NULL)`).(*InsertStmt)
	row := st.Rows[0]
	if row[0].Int != 1 || row[1].Int != -2 || row[2].Float != 3.5 ||
		row[3].Str != "it's" || !row[4].Bool || !row[5].IsNull() {
		t.Fatalf("row = %v", row)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	res := e.MustExec("SELECT name, age FROM users WHERE city = 'london' AND age > 50")
	if len(res.Cols) != 2 || res.Cols[0] != "name" {
		t.Fatalf("cols = %v", res.Cols)
	}
	for _, r := range res.Rows {
		if r[1].Int <= 50 {
			t.Fatalf("predicate violated: %v", r)
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestSelectStar(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	res := e.MustExec("SELECT * FROM users LIMIT 3")
	if len(res.Rows) != 3 || len(res.Cols) != 4 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Cols)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	res := e.MustExec("SELECT id FROM users ORDER BY id DESC LIMIT 5")
	want := []int64{49, 48, 47, 46, 45}
	for i, r := range res.Rows {
		if r[0].Int != want[i] {
			t.Fatalf("rows = %v", res.Rows)
		}
	}
}

func TestJoinQuery(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	res := e.MustExec(`SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.user_id WHERE u.id = 7`)
	if len(res.Rows) != 4 { // orders 7, 57, 107, 157
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].Str != "user7" {
			t.Fatalf("row = %v", r)
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	res := e.MustExec("SELECT city, COUNT(*), AVG(age) FROM users GROUP BY city ORDER BY city")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "london" {
		t.Fatalf("order = %v", res.Rows)
	}
	total := int64(0)
	for _, r := range res.Rows {
		total += r[1].Int
	}
	if total != 50 {
		t.Fatalf("counts sum to %d", total)
	}
	if res.Cols[1] != "count(*)" || res.Cols[2] != "avg(age)" {
		t.Fatalf("cols = %v", res.Cols)
	}
}

func TestGlobalAggregate(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	res := e.MustExec("SELECT COUNT(*), SUM(total), MIN(total), MAX(total) FROM orders")
	r := res.Rows[0]
	if r[0].Int != 200 {
		t.Fatalf("count = %v", r)
	}
	// sum of (i + 0.5) for i in 0..199 = 19900 + 100 = 20000.
	if r[1].Float != 20000 {
		t.Fatalf("sum = %v", r[1])
	}
	if r[2].Float != 0.5 || r[3].Float != 199.5 {
		t.Fatalf("min/max = %v %v", r[2], r[3])
	}
}

func TestAggregateErrors(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	if _, err := e.Exec("SELECT name, COUNT(*) FROM users"); err == nil {
		t.Fatal("non-grouped column must error")
	}
	if _, err := e.Exec("SELECT *, COUNT(*) FROM users"); err == nil {
		t.Fatal("star with aggregate must error")
	}
}

func TestUpdateDelete(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	res := e.MustExec("UPDATE users SET city = 'berlin' WHERE city = 'tokyo'")
	if res.Affected == 0 {
		t.Fatal("nothing updated")
	}
	if n := len(e.MustExec("SELECT id FROM users WHERE city = 'tokyo'").Rows); n != 0 {
		t.Fatalf("tokyo rows = %d", n)
	}
	res = e.MustExec("DELETE FROM users WHERE city = 'berlin'")
	if res.Affected == 0 {
		t.Fatal("nothing deleted")
	}
	if n := len(e.MustExec("SELECT id FROM users").Rows); n != 50-res.Affected {
		t.Fatalf("rows = %d", n)
	}
}

func TestIndexPathChosenAndCorrect(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	noIdx := e.MustExec("SELECT id FROM users WHERE id = 7")
	if !strings.Contains(noIdx.Plan, "SeqScan") {
		t.Fatalf("plan = %s", noIdx.Plan)
	}
	e.MustExec("CREATE INDEX ON users (id)")
	withIdx := e.MustExec("SELECT id FROM users WHERE id = 7")
	if !strings.Contains(withIdx.Plan, "IndexScan") {
		t.Fatalf("plan = %s", withIdx.Plan)
	}
	if len(noIdx.Rows) != len(withIdx.Rows) || len(withIdx.Rows) != 1 {
		t.Fatalf("index path changed results: %d vs %d", len(noIdx.Rows), len(withIdx.Rows))
	}
	// Range predicate via index keeps strictness (residual filter).
	r := e.MustExec("SELECT id FROM users WHERE id > 47")
	if len(r.Rows) != 2 {
		t.Fatalf("range rows = %v", r.Rows)
	}
}

func TestIndexMaintenanceThroughDML(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	e.MustExec("CREATE INDEX ON users (city)")
	e.MustExec("UPDATE users SET city = 'rome' WHERE id = 0")
	res := e.MustExec("SELECT id FROM users WHERE city = 'rome'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 0 {
		t.Fatalf("rows = %v (plan %s)", res.Rows, res.Plan)
	}
	e.MustExec("DELETE FROM users WHERE id = 0")
	if n := len(e.MustExec("SELECT id FROM users WHERE city = 'rome'").Rows); n != 0 {
		t.Fatalf("deleted row still indexed: %d", n)
	}
}

func TestBuildSideChoiceFollowsStats(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	// users=50, orders=200 (analyzed): greedy seeds at users, and the
	// seed (being the smaller side) hash-builds.
	const sql = "SELECT u.id FROM users u JOIN orders o ON u.id = o.user_id"
	plan := explainOf(t, e, sql)
	if !strings.HasPrefix(plan, "SeqScan(u ") || !strings.Contains(plan, "HashJoin(build=left") {
		t.Fatalf("plan = %s", plan)
	}
	// Lie about users being huge: greedy re-seeds at orders — the join
	// order flips, and the new seed builds.
	if err := e.cat.SetStats("users", TableStats{Rows: 1_000_000, Distinct: map[string]int{"id": 1_000_000}}); err != nil {
		t.Fatal(err)
	}
	plan = explainOf(t, e, sql)
	if !strings.HasPrefix(plan, "SeqScan(o ") || !strings.Contains(plan, "HashJoin(build=left") {
		t.Fatalf("plan = %s", plan)
	}
}

func TestTypeErrors(t *testing.T) {
	e := newEngine(t)
	e.MustExec("CREATE TABLE t (a INT, b STRING)")
	if _, err := e.Exec("INSERT INTO t VALUES ('x', 'y')"); !errors.Is(err, ErrType) {
		t.Fatalf("got %v", err)
	}
	if _, err := e.Exec("INSERT INTO t VALUES (1)"); !errors.Is(err, ErrArity) {
		t.Fatalf("got %v", err)
	}
	if _, err := e.Exec("SELECT zz FROM t"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("got %v", err)
	}
	if _, err := e.Exec("SELECT a FROM nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("got %v", err)
	}
	if _, err := e.Exec("CREATE TABLE t (a INT)"); !errors.Is(err, ErrTableExists) {
		t.Fatalf("got %v", err)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := newEngine(t)
	e.MustExec("CREATE TABLE a (id INT)")
	e.MustExec("CREATE TABLE b (id INT)")
	if _, err := e.Exec("SELECT id FROM a JOIN b ON a.id = b.id"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("got %v", err)
	}
}

func TestThreeWayJoin(t *testing.T) {
	e := newEngine(t)
	e.MustExec("CREATE TABLE a (x INT)")
	e.MustExec("CREATE TABLE b (x INT, y INT)")
	e.MustExec("CREATE TABLE c (y INT)")
	for i := 0; i < 5; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO a VALUES (%d)", i))
		e.MustExec(fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", i, i*10))
		e.MustExec(fmt.Sprintf("INSERT INTO c VALUES (%d)", i*10))
	}
	res := e.MustExec("SELECT a.x, c.y FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y ORDER BY a.x")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, r := range res.Rows {
		if r[0].Int != int64(i) || r[1].Int != int64(i*10) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

// --------------------------------------------------------------------------
// Scenario 3: mid-query re-optimisation.

// scenario3Engine builds the misestimate setup: stale stats claim
// `big` has 10 rows when it actually has 2000; `small` is honest at
// 100 rows.
func scenario3Engine(t *testing.T) *Engine {
	t.Helper()
	e := newEngine(t)
	e.MustExec("CREATE TABLE big (k INT, pad STRING)")
	e.MustExec("CREATE TABLE small (k INT, v INT)")
	for i := 0; i < 2000; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO big VALUES (%d, 'xxxxxxxx')", i%100))
	}
	for i := 0; i < 100; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO small VALUES (%d, %d)", i, i))
	}
	e.MustExec("ANALYZE small")
	// Stale statistics: the optimiser believes big is tiny.
	if err := e.cat.SetStats("big", TableStats{Rows: 10, Distinct: map[string]int{"k": 10}}); err != nil {
		t.Fatal(err)
	}
	return e
}

const scenario3SQL = "SELECT big.k, small.v FROM big JOIN small ON big.k = small.k"

func TestAdaptiveExecDetectsMisestimateAndSwaps(t *testing.T) {
	e := scenario3Engine(t)

	// Static plan builds on `big` (est 10 rows < 100).
	static := refSelect(t, e, scenario3SQL, nil)
	if !strings.Contains(static.Plan, "HashJoin(build=left") {
		t.Fatalf("static plan = %s", static.Plan)
	}

	res, rep, err := execAdaptive(e, scenario3SQL, AdaptiveConfig{Theta: 3, CheckEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Replanned {
		t.Fatalf("report = %+v", rep)
	}
	if rep.InitialBuild != "big" || rep.FinalBuild != "small" {
		t.Fatalf("builds: %s -> %s", rep.InitialBuild, rep.FinalBuild)
	}
	// θ·est = 30: the first safe point — the end of the first page of big,
	// batches being page-granular on a heap scan — already violates it.
	if rep.TriggerRow > 400 {
		t.Fatalf("trigger row = %d, want early detection", rep.TriggerRow)
	}
	// Results identical to the static plan.
	requireSameOrdered(t, "adaptive vs static", rowsMultiset(res), rowsMultiset(static))
	// Peak memory far below materialising all of big.
	if rep.PeakHashRows >= 1000 {
		t.Fatalf("peak hash rows = %d, adaptation saved nothing", rep.PeakHashRows)
	}
	// Trace records the loop: safepoint → violation → reoptimize.
	log := e.log
	if log.Count(trace.KindViolation) == 0 || log.Count(trace.KindReoptimize) == 0 ||
		log.Count(trace.KindSafePoint) == 0 {
		t.Fatalf("trace = %s", log.Summary())
	}
}

func TestAdaptiveExecNoViolationStaysPut(t *testing.T) {
	e := scenario3Engine(t)
	e.MustExec("ANALYZE big") // honest stats: no violation
	res, rep, err := execAdaptive(e, scenario3SQL, DefaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replanned {
		t.Fatalf("replanned with honest stats: %+v", rep)
	}
	if len(res.Rows) != 2000 { // 2000 big rows × 1 small match each
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestAdaptiveExecIndexInjection(t *testing.T) {
	e := scenario3Engine(t)
	e.MustExec("CREATE INDEX ON small (k)")
	// Every tail over the index-NL stage, with the aborted build on either
	// side of the FROM clause, at every worker count.
	for _, sql := range []string{
		scenario3SQL,
		"SELECT small.v, big.k FROM small JOIN big ON big.k = small.k",
		"SELECT small.v, COUNT(*), MAX(big.k) FROM big JOIN small ON big.k = small.k GROUP BY small.v",
		"SELECT big.k, small.v FROM big JOIN small ON big.k = small.k ORDER BY small.v DESC LIMIT 30",
	} {
		want := rowsMultiset(refSelect(t, e, sql, nil))
		for _, w := range []int{1, 2, 4} {
			res, rep, err := e.ExecuteSQL(sql, ExecOptions{Workers: w,
				Adaptive: &AdaptiveConfig{Theta: 3, CheckEvery: 32, PreferIndex: true}})
			if err != nil {
				t.Fatal(err)
			}
			ar := rep.Adaptive
			if !ar.Replanned || !ar.UsedIndex || ar.InitialBuild != "big" || ar.FinalBuild != "small" ||
				fmt.Sprint(ar.ExecutedOrder) != "[big small]" {
				t.Fatalf("workers=%d %s: report = %+v", w, sql, ar)
			}
			if !strings.Contains(res.Plan, "index-nl") {
				t.Fatalf("plan missing the index-nl summary: %s", res.Plan)
			}
			requireSameOrdered(t, fmt.Sprintf("workers=%d %s", w, sql), rowsMultiset(res), want)
		}
	}
	// A pushed-down predicate on the indexed table rules the move out: the
	// index would have to re-check it.
	_, rep, err := execAdaptive(e, scenario3SQL+" WHERE small.v >= 0",
		AdaptiveConfig{Theta: 3, CheckEvery: 32, PreferIndex: true})
	if err != nil || !rep.Replanned || rep.UsedIndex {
		t.Fatalf("filtered inner: err=%v report=%+v", err, rep)
	}
}

// Property: for random table contents, the adaptive executor returns
// exactly the static executor's result multiset, whether or not it
// replans.
func TestAdaptiveMatchesStaticProperty(t *testing.T) {
	f := func(seed int64, bigN, smallN uint8, lieRaw uint8) bool {
		e := NewEngine(NewCatalog(256), trace.New(), nil)
		e.MustExec("CREATE TABLE big (k INT)")
		e.MustExec("CREATE TABLE small (k INT)")
		bn := int(bigN)%300 + 1
		sn := int(smallN)%50 + 1
		for i := 0; i < bn; i++ {
			e.MustExec(fmt.Sprintf("INSERT INTO big VALUES (%d)", (seed+int64(i))%20))
		}
		for i := 0; i < sn; i++ {
			e.MustExec(fmt.Sprintf("INSERT INTO small VALUES (%d)", int64(i)%20))
		}
		e.MustExec("ANALYZE small")
		lie := int(lieRaw)%50 + 1
		_ = e.cat.SetStats("big", TableStats{Rows: lie, Distinct: map[string]int{"k": 20}})
		sql := "SELECT big.k, small.k FROM big JOIN small ON big.k = small.k"
		snap := e.cat.db.Txns().Begin()
		static, err := e.execSelect(MustParse(sql).(*SelectStmt), snap)
		if snap.Rollback() != nil || err != nil {
			return false
		}
		adaptive, _, err := execAdaptive(e, sql, AdaptiveConfig{Theta: 2, CheckEvery: 8})
		if err != nil {
			return false
		}
		if len(static.Rows) != len(adaptive.Rows) {
			return false
		}
		cnt := map[string]int{}
		for _, r := range static.Rows {
			cnt[r[0].String()+"|"+r[1].String()]++
		}
		for _, r := range adaptive.Rows {
			cnt[r[0].String()+"|"+r[1].String()]--
		}
		for _, v := range cnt {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestExplainStatement(t *testing.T) {
	e := newEngine(t)
	seedShop(t, e)
	res := e.MustExec("EXPLAIN SELECT u.id FROM users u JOIN orders o ON u.id = o.user_id WHERE u.id = 3")
	if len(res.Rows) != 1 || res.Cols[0] != "plan" {
		t.Fatalf("explain shape: %v %v", res.Cols, res.Rows)
	}
	plan := res.Rows[0][0].Str
	if !strings.Contains(plan, "SeqScan") || !strings.Contains(plan, "HashJoin") {
		t.Fatalf("plan = %q", plan)
	}
	// EXPLAIN must not execute: row counts unchanged afterwards.
	if _, err := e.Exec("EXPLAIN SELECT * FROM nope"); err == nil {
		t.Fatal("explain of bad query must error")
	}
}

// TestParsePointReadAllocatesOnlyTheStatement: parsing a point read
// allocates the statement, its select list and its WHERE list and
// nothing else — the tokens stay in the parser's stack buffer, and a
// select item is case-folded for the aggregate table only when a call
// follows it.
func TestParsePointReadAllocatesOnlyTheStatement(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { MustParse("SELECT id, price, name FROM item WHERE id = 5") }); n != 3 {
		t.Fatalf("parse allocates %.0f times, want 3", n)
	}
}
