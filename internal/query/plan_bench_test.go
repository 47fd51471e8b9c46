package query

import (
	"fmt"
	"testing"

	"github.com/adm-project/adm/internal/allocbudget"
	"github.com/adm-project/adm/internal/trace"
)

// BenchmarkPlanMultiJoin measures greedy planning of a 5-table chain
// (parse excluded): the tentpole target is tens of microseconds per
// plan, allocation-light, at O(n²) in the table count.
func BenchmarkPlanMultiJoin(b *testing.B) {
	op := planMultiJoinOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// planMultiJoinOp builds BenchmarkPlanMultiJoin's catalog and returns
// its op: one plan of the parsed statement, inside a transaction that
// rolls back when tb ends.
func planMultiJoinOp(tb testing.TB) func() {
	e := NewEngine(NewCatalog(), trace.New(), nil)
	for i := 0; i < 5; i++ {
		if _, err := e.Exec(fmt.Sprintf("CREATE TABLE t%d (a INT, b INT)", i)); err != nil {
			tb.Fatal(err)
		}
		if err := e.cat.SetStats(fmt.Sprintf("t%d", i), TableStats{
			Rows: 100 * (i + 1), Distinct: map[string]int{"a": 50, "b": 50}}); err != nil {
			tb.Fatal(err)
		}
	}
	sql := "SELECT * FROM t0 JOIN t1 ON t0.b = t1.a JOIN t2 ON t1.b = t2.a" +
		" JOIN t3 ON t2.b = t3.a JOIN t4 ON t3.b = t4.a WHERE t0.a = 7"
	st := MustParse(sql).(*SelectStmt)
	txn := e.cat.db.Txns().Begin()
	tb.Cleanup(func() { _ = txn.Rollback() })
	return func() {
		if _, err := e.planSelect(st, txn); err != nil {
			tb.Fatal(err)
		}
	}
}

// Greedy planning of a 5-table chain, parse excluded (measured 74, every
// run, over a volatile catalog; 84 over a DB, where each of the 5 scans
// binds a snapshot view and its visibility closure; 84 → 79 once the
// view holds its transaction and the closure is gone): a candidate loop
// gone cubic or re-deriving statistics multiplies it.
const planAllocBudget = 96

// TestAllocBudgets holds BenchmarkPlanMultiJoin to its allocation
// budget.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Skip(t)
	allocbudget.Measure(t, "PlanMultiJoin", 1000, planMultiJoinOp(t)).Allocs(planAllocBudget)
}
