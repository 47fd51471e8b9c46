package query

import (
	"fmt"
	"testing"

	"github.com/adm-project/adm/internal/trace"
)

// BenchmarkPlanMultiJoin measures greedy planning of a 5-table chain
// (parse excluded): the tentpole target is tens of microseconds per
// plan, allocation-light, at O(n²) in the table count.
func BenchmarkPlanMultiJoin(b *testing.B) {
	e := NewEngine(NewCatalog(64), trace.New(), nil)
	for i := 0; i < 5; i++ {
		if _, err := e.Exec(fmt.Sprintf("CREATE TABLE t%d (a INT, b INT)", i)); err != nil {
			b.Fatal(err)
		}
		if err := e.cat.SetStats(fmt.Sprintf("t%d", i), TableStats{
			Rows: 100 * (i + 1), Distinct: map[string]int{"a": 50, "b": 50}}); err != nil {
			b.Fatal(err)
		}
	}
	sql := "SELECT * FROM t0 JOIN t1 ON t0.b = t1.a JOIN t2 ON t1.b = t2.a" +
		" JOIN t3 ON t2.b = t3.a JOIN t4 ON t3.b = t4.a WHERE t0.a = 7"
	st := MustParse(sql).(*SelectStmt)
	txn := e.cat.db.Txns().Begin()
	defer txn.Rollback()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.planSelect(st, txn); err != nil {
			b.Fatal(err)
		}
	}
}
