package query

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// extremesEngine builds table x (g INT, v FLOAT) and its seven-row
// join partner d (g INT, tag STRING). x holds the same 2,002 rows in
// either insert order: seven groups, v NULL in every tenth row, -0 and
// 0 beside small integers, and two NaNs, which the order places first
// on page 0 and first on a middle page, where a worker's partial
// starts. A NaN encodes to as many bytes as any other float, so moving
// one moves no page boundary.
func extremesEngine(t *testing.T, reverse bool) *Engine {
	t.Helper()
	var rows []storage.Tuple
	for i := 0; i < 2000; i++ {
		v := storage.FloatValue(float64(i % 50))
		switch {
		case i%10 == 3:
			v = storage.NullValue()
		case i%100 == 0:
			v = storage.FloatValue(math.Copysign(0, -1))
		}
		rows = append(rows, storage.Tuple{storage.IntValue(int64(i % 7)), v})
	}
	if reverse {
		for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
	nan := storage.FloatValue(math.NaN())
	rows = append(rows, storage.Tuple{storage.IntValue(0), nan}, storage.Tuple{storage.IntValue(3), nan})
	mk := func() *Engine {
		e := NewEngine(NewCatalog(), trace.New(), nil)
		e.MustExec("CREATE TABLE x (g INT, v FLOAT)")
		e.MustExec("CREATE TABLE d (g INT, tag STRING)")
		return e
	}
	probe := mk()
	txn := probe.cat.db.Txns().Begin()
	mid := -1
	for i, r := range rows {
		rid, err := probe.cat.InsertTxn("x", r, txn)
		if err != nil {
			t.Fatal(err)
		}
		if mid < 0 && i >= len(rows)/2 && rid.Slot == 0 && !r[1].IsNull() {
			mid = i
		}
	}
	if err := txn.Commit(); err != nil || mid < 0 {
		t.Fatalf("probe layout: mid=%d, %v", mid, err)
	}
	n := len(rows)
	rows[0], rows[n-2] = rows[n-2], rows[0]
	rows[mid], rows[n-1] = rows[n-1], rows[mid]
	e := mk()
	loadRows(t, e.cat, "x", rows...)
	for g := 0; g < 7; g++ {
		loadRows(t, e.cat, "d", storage.Tuple{storage.IntValue(int64(g)), storage.StringValue(fmt.Sprint("t", g%3))})
	}
	e.MustExec("ANALYZE x")
	e.MustExec("ANALYZE d")
	tbl, _ := e.cat.Table("x")
	ids, nanFirst := tbl.Heap.PageIDs(), 0
	for _, id := range ids {
		if ts, err := tbl.Heap.Blind().PageTuplesInto(id, nil); err != nil || isNaN(ts[0][1]) {
			nanFirst++
		}
	}
	if len(ids) < 8 || nanFirst != 2 {
		t.Fatalf("%d pages, %d starting with NaN; want 8 or more, 2", len(ids), nanFirst)
	}
	return e
}

// exactRows renders rows as a sorted multiset, floats by their bits.
func exactRows(rows []storage.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		for _, v := range r {
			if v.Kind == storage.KindFloat {
				out[i] += fmt.Sprintf("%g(%x)|", v.Float, math.Float64bits(v.Float))
			} else {
				out[i] += fmt.Sprintf("%d:%s|", v.Kind, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestAggregatesInvariantUnderNaN: MIN, MAX, SUM, COUNT(v) and AVG,
// global, grouped and through a join, give one answer bit for bit, the
// naive evaluator's, at 1, 2 and 4 workers, at batch sizes 1, 7 and
// the default, in both insert orders — though a NaN starts page 0 and
// a middle page, and -0 ties 0. A MIN or MAX that let a NaN met first
// swallow the values after it answered by schedule.
func TestAggregatesInvariantUnderNaN(t *testing.T) {
	queries := []string{
		"SELECT MIN(v), MAX(v), SUM(v), COUNT(v), AVG(v), COUNT(*) FROM x",
		"SELECT g, MIN(v), MAX(v), SUM(v), COUNT(v), AVG(v) FROM x GROUP BY g",
		"SELECT d.tag, MIN(x.v), MAX(x.v), SUM(x.v), COUNT(x.v), AVG(x.v) FROM x JOIN d ON x.g = d.g GROUP BY d.tag",
		"SELECT MIN(x.v), MAX(x.v), COUNT(x.v) FROM x JOIN d ON x.g = d.g WHERE d.tag = 't1'",
	}
	engines := []*Engine{extremesEngine(t, false), extremesEngine(t, true)}
	for _, sql := range queries {
		want := exactRows(refSelect(t, engines[0], sql, nil).Rows)
		for order, e := range engines {
			requireSameOrdered(t, fmt.Sprintf("%s: naive, order %d", sql, order), exactRows(refSelect(t, e, sql, nil).Rows), want)
			for _, workers := range []int{1, 2, 4} {
				for _, batch := range []int{1, 7, 0} {
					res, _, err := e.ExecuteSQL(sql, ExecOptions{Workers: workers, BatchSize: batch})
					if err != nil {
						t.Fatal(err)
					}
					requireSameOrdered(t, fmt.Sprintf("%s: order %d, workers=%d batch=%d", sql, order, workers, batch),
						exactRows(res.Rows), want)
				}
			}
		}
	}
}

// TestMinMaxAgreeWithOrderBy: MIN(v) is the first non-NULL v under
// ORDER BY v and MAX(v) the first under ORDER BY v DESC, bit for bit,
// over the table and within each group: NaN is the MAX of a group
// holding one and never its MIN, and where -0 ties 0 for the MIN, MIN
// shows the one ORDER BY puts first.
func TestMinMaxAgreeWithOrderBy(t *testing.T) {
	e := extremesEngine(t, false)
	one := func(v storage.Value) string { return exactRows([]storage.Tuple{{v}})[0] }
	first := func(where, dir string) string {
		sql := fmt.Sprintf("SELECT v FROM x WHERE %sv IS NOT NULL ORDER BY v %s LIMIT 1", where, dir)
		return one(e.MustExec(sql).Rows[0][0])
	}
	for _, workers := range []int{1, 2, 4} {
		global, _, err := e.ExecuteSQL("SELECT MIN(v), MAX(v) FROM x", ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		grouped, _, err := e.ExecuteSQL("SELECT MIN(v), MAX(v), g FROM x GROUP BY g", ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range append(grouped.Rows, global.Rows[0]) {
			where := ""
			if len(r) == 3 {
				where = fmt.Sprintf("g = %d AND ", r[2].Int)
			}
			if mn, mx := one(r[0]), one(r[1]); mn != first(where, "ASC") || mx != first(where, "DESC") {
				t.Fatalf("workers=%d, %q: MIN %s MAX %s, ORDER BY gives %s and %s",
					workers, where, mn, mx, first(where, "ASC"), first(where, "DESC"))
			}
		}
	}
}
