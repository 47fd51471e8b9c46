// Vectorized-kernel differential tests: the compiled filter path
// (kernels + zone-map pruning) must return byte-identical results to
// the boxed reference path across worker counts, batch sizes, NULL /
// NaN / -0 data, snapshot transactions and crash recovery — plus the
// three-valued-logic matrix for WHERE over NULL columns on the
// serial, batch and morsel pipelines, and the EXPLAIN rendering.
package query

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
)

// kernelQueries is the differential workload: every operator, both
// column types the kernels specialise, IS [NOT] NULL, multi-conjunct
// orders the eddy rank may permute, and cross-kind comparisons.
var kernelQueries = []string{
	"SELECT a FROM hard WHERE a < 50",
	"SELECT a FROM hard WHERE a <= 0",
	"SELECT a, f FROM hard WHERE a = 7",
	"SELECT a FROM hard WHERE a != 7",
	"SELECT a FROM hard WHERE a >= 9000000000000000000",
	"SELECT f FROM hard WHERE f < 0.0",
	"SELECT f FROM hard WHERE f = 0.0",
	"SELECT f FROM hard WHERE f >= 2.5",
	"SELECT s FROM hard WHERE s < 'm'",
	"SELECT s FROM hard WHERE s = ''",
	"SELECT s FROM hard WHERE s != 'q'",
	"SELECT a FROM hard WHERE f IS NULL",
	"SELECT a FROM hard WHERE f IS NOT NULL",
	"SELECT a FROM hard WHERE s IS NULL AND a < 70",
	"SELECT a, f, s FROM hard WHERE a < 90 AND f >= 0.0 AND s != 'zz'",
	"SELECT a FROM hard WHERE a > 10 AND a < 90 AND f IS NOT NULL AND s IS NOT NULL",
	"SELECT a FROM hard WHERE s > 100",   // cross-kind: string col vs int lit
	"SELECT a FROM hard WHERE a < 'x'",   // cross-kind: int col vs string lit
	"SELECT a FROM hard WHERE f = TRUE",  // cross-kind: float col vs bool lit
	"SELECT a FROM hard WHERE a IS NULL", // never-null column
	"SELECT COUNT(*) FROM hard WHERE a < 25",
}

// seedHard populates `hard` with every value shape the kernels
// special-case: NULLs in each column, NaN, -0, +0, int values past
// 2^53 (where the float-image comparison loses precision), empty and
// high strings. Inserted through the catalog so NaN/-0 reach storage
// (SQL literals cannot spell them).
func seedHard(t *testing.T, e *Engine, rows int) {
	t.Helper()
	e.MustExec("CREATE TABLE hard (a INT, f FLOAT, s STRING)")
	for i := 0; i < rows; i++ {
		loadRows(t, e.cat, "hard", hardRow(i))
	}
	if err := e.cat.Analyze("hard"); err != nil {
		t.Fatal(err)
	}
}

// hardRow is row i of the `hard` table.
func hardRow(i int) storage.Tuple {
	var a, f, s storage.Value
	switch i % 7 {
	case 0:
		a = storage.IntValue(int64(i % 100))
	case 1:
		a = storage.IntValue(-int64(i % 50))
	case 2:
		a = storage.IntValue(1<<53 + int64(i%3))
	default:
		a = storage.IntValue(int64(i % 100))
	}
	switch i % 5 {
	case 0:
		f = storage.FloatValue(math.NaN())
	case 1:
		f = storage.FloatValue(math.Copysign(0, -1))
	case 2:
		f = storage.NullValue()
	case 3:
		f = storage.FloatValue(float64(i) / 4)
	default:
		f = storage.FloatValue(0)
	}
	switch i % 4 {
	case 0:
		s = storage.StringValue(fmt.Sprintf("row-%03d", i%60))
	case 1:
		s = storage.NullValue()
	case 2:
		s = storage.StringValue("")
	default:
		s = storage.StringValue("zz")
	}
	return storage.Tuple{a, f, s}
}

// TestKernelBoxedDeterminismMatrix is the acceptance matrix: for every
// query, the kernel and boxed paths must agree row-for-row at workers
// {1,4} × batch {1,64,1024}, and both must agree with the serial
// executor.
func TestKernelBoxedDeterminismMatrix(t *testing.T) {
	e := newEngine(t)
	seedHard(t, e, 700)
	for _, q := range kernelQueries {
		serial := rowsMultiset(refSelect(t, e, q, nil))
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{1, 64, 1024} {
				kres, _, err := e.ExecuteSQL(q, ExecOptions{Workers: workers, BatchSize: batch})
				if err != nil {
					t.Fatalf("%s kernel w=%d b=%d: %v", q, workers, batch, err)
				}
				bres, _, err := e.ExecuteSQL(q, ExecOptions{Workers: workers, BatchSize: batch, NoVectorKernels: true})
				if err != nil {
					t.Fatalf("%s boxed w=%d b=%d: %v", q, workers, batch, err)
				}
				km, bm := rowsMultiset(kres), rowsMultiset(bres)
				if fmt.Sprint(km) != fmt.Sprint(bm) {
					t.Fatalf("%s w=%d b=%d: kernel %v != boxed %v", q, workers, batch, km, bm)
				}
				if fmt.Sprint(km) != fmt.Sprint(serial) {
					t.Fatalf("%s w=%d b=%d: parallel %v != serial %v", q, workers, batch, km, serial)
				}
			}
		}
	}
}

// TestThreeValuedLogicMatrix: WHERE over NULL columns follows SQL 3VL
// (NULL fails every comparison, even !=; IS NULL is the only way to
// select it) identically on the reference iterator, the kernel
// pipeline and the boxed batch filter.
func TestThreeValuedLogicMatrix(t *testing.T) {
	e := newEngine(t)
	e.MustExec("CREATE TABLE n (k INT, v INT)")
	for i := 0; i < 30; i++ {
		v := storage.Value(storage.IntValue(int64(i % 5)))
		if i%3 == 0 {
			v = storage.NullValue()
		}
		loadRows(t, e.cat, "n", storage.Tuple{storage.IntValue(int64(i)), v})
	}
	cases := []struct {
		where string
		want  int // hand-counted rows
	}{
		{"v = 2", 4},      // i%5==2 and i%3!=0: 2,12,17,22,27 minus div3 → 2,12? recount below
		{"v != 2", 16},    // non-null rows failing =2
		{"v < 2", 8},      // 0,1 values on non-null rows
		{"v IS NULL", 10}, // every third row
		{"v IS NOT NULL", 20},
		{"v IS NOT NULL AND v >= 3", 8},
	}
	// Recompute expectations from the same data definition rather than
	// trusting the comments above.
	for ci := range cases {
		n := 0
		for i := 0; i < 30; i++ {
			null := i%3 == 0
			v := int64(i % 5)
			pass := false
			switch cases[ci].where {
			case "v = 2":
				pass = !null && v == 2
			case "v != 2":
				pass = !null && v != 2
			case "v < 2":
				pass = !null && v < 2
			case "v IS NULL":
				pass = null
			case "v IS NOT NULL":
				pass = !null
			case "v IS NOT NULL AND v >= 3":
				pass = !null && v >= 3
			}
			if pass {
				n++
			}
		}
		cases[ci].want = n
	}
	tbl, err := e.cat.Table("n")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		q := "SELECT k FROM n WHERE " + tc.where
		serial := refSelect(t, e, q, nil)
		if len(serial.Rows) != tc.want {
			t.Fatalf("serial %q: %d rows, want %d", tc.where, len(serial.Rows), tc.want)
		}
		for _, workers := range []int{1, 4} {
			res, _, err := e.ExecuteSQL(q, ExecOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(rowsMultiset(res)) != fmt.Sprint(rowsMultiset(serial)) {
				t.Fatalf("batch %q w=%d: %v != serial %v", tc.where, workers,
					rowsMultiset(res), rowsMultiset(serial))
			}
		}
		// The boxed predicate applied in place inside the batch source.
		pred, err := compilePreds(tableSchema("n", tbl), MustParse(q).(*SelectStmt).Where)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := operators.DrainParallelBatches(
			operators.NewFilterBatches(operators.NewHeapBatches(tbl.Heap), pred), operators.ParallelConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) != tc.want {
			t.Fatalf("boxed batches %q: %d rows, want %d", tc.where, len(kept), tc.want)
		}
	}
}

// TestKernelUnderTxnSnapshot: zone maps summarise every MVCC version,
// so pruning must stay sound for old snapshots — a transaction begun
// before concurrent updates keeps its rows under the kernel path at
// every worker/batch shape.
func TestKernelUnderTxnSnapshot(t *testing.T) {
	eng, db := newTxnEngine(t, 300, false)
	if err := db.Checkpoint(); err != nil { // build zone maps
		t.Fatal(err)
	}
	old := db.Txns().Begin()
	defer old.Rollback()

	writer := db.Txns().Begin()
	for i := 0; i < 40; i++ {
		if _, err := execTxn(eng, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'new')", 900+i), writer); err != nil {
			t.Fatal(err)
		}
	}
	// Update rows the writer itself inserted: stamping xmax rewrites
	// the version header in place.
	if _, err := execTxn(eng, "UPDATE kv SET v = 'moved' WHERE k >= 930", writer); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil { // rebuild zones over both versions
		t.Fatal(err)
	}

	fresh := db.Txns().Begin()
	defer fresh.Rollback()
	for _, tc := range []struct {
		txn  *storage.Txn
		q    string
		want int
	}{
		{old, "SELECT k FROM kv WHERE k >= 900", 0},
		{fresh, "SELECT k FROM kv WHERE k >= 900", 40},
		{old, "SELECT k FROM kv WHERE v = 'moved'", 0},
		{fresh, "SELECT k FROM kv WHERE v = 'moved'", 10},
		{old, "SELECT k FROM kv WHERE k >= 930", 0},
		{fresh, "SELECT k FROM kv WHERE k >= 930", 10},
		{old, "SELECT k FROM kv WHERE k < 10", 10},
		{fresh, "SELECT k FROM kv WHERE k < 10", 10},
	} {
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{1, 64, 1024} {
				for _, boxed := range []bool{false, true} {
					res, _, err := eng.ExecuteSQL(tc.q, ExecOptions{
						Workers: workers, BatchSize: batch, Txn: tc.txn, NoVectorKernels: boxed,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Rows) != tc.want {
						t.Fatalf("%s (w=%d b=%d boxed=%v): %d rows, want %d",
							tc.q, workers, batch, boxed, len(res.Rows), tc.want)
					}
				}
			}
		}
	}
}

// TestKernelAfterCrashRecovery: recovery rebuilds zone maps from the
// recovered heaps; the kernel path must agree with the boxed path on
// the reopened database.
func TestKernelAfterCrashRecovery(t *testing.T) {
	wal, data := storage.NewMemDisk(), storage.NewMemDisk()
	e, db := openDurableEngine(t, wal, data)
	seedDurable(t, e)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.MustExec("DELETE FROM users WHERE id = 7")
	e.MustExec("UPDATE users SET age = 99 WHERE id = 41")

	e2, _ := openDurableEngine(t,
		storage.NewMemDiskFrom(wal.Bytes()), storage.NewMemDiskFrom(data.Bytes()))
	for _, q := range []string{
		"SELECT id FROM users WHERE age = 99",
		"SELECT id FROM users WHERE id < 30",
		"SELECT id FROM users WHERE city = 'paris' AND age > 40",
		"SELECT id FROM orders WHERE amount < 50",
	} {
		kres, _, err := e2.ExecuteSQL(q, ExecOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		bres, _, err := e2.ExecuteSQL(q, ExecOptions{Workers: 4, NoVectorKernels: true})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(rowsMultiset(kres)) != fmt.Sprint(rowsMultiset(bres)) {
			t.Fatalf("%s after recovery: kernel %v != boxed %v", q,
				rowsMultiset(kres), rowsMultiset(bres))
		}
	}
}

// TestKernelZonePruningObserved: a clustered predicate on a
// checkpointed table must actually skip pages (the perf mechanism is
// live, not just sound) and still return exact rows.
func TestKernelZonePruningObserved(t *testing.T) {
	eng, db := newTxnEngine(t, 4000, false)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.ExecuteSQL("SELECT k FROM kv WHERE k < 40", ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 {
		t.Fatalf("%d rows, want 40", len(res.Rows))
	}
	if !strings.Contains(res.Plan, "kernel[k < 40]") {
		t.Fatalf("plan missing filter summary: %s", res.Plan)
	}
	var pruned, pages int
	summary := res.Plan[strings.Index(res.Plan, "pruned="):]
	if _, err := fmt.Sscanf(summary, "pruned=%d/%d", &pruned, &pages); err != nil || pruned == 0 {
		t.Fatalf("no pages pruned over a clustered 1%% predicate: %s (%v)", res.Plan, err)
	}
}

// TestExplainGoldenFilterKernel pins the EXPLAIN rendering of the
// filter strategy next to the adaptation summary goldens: kernel
// conjuncts for the vectorized path, boxed for a DML-side clause.
func TestExplainGoldenFilterKernel(t *testing.T) {
	e := explainEngine(t)
	got := explainOf(t, e, "SELECT id FROM s WHERE rid < 4 AND id != 2")
	want := "SeqScan(s est=33) | filter(s): pruned=0/0 kernel[rid < 4 AND id != 2]"
	if got != want {
		t.Fatalf("plan =\n  %s\nwant\n  %s", got, want)
	}
	// IS NULL renders through the same path.
	got = explainOf(t, e, "SELECT id FROM s WHERE rid IS NOT NULL")
	want = "SeqScan(s est=33) | filter(s): pruned=0/0 kernel[rid IS NOT NULL]"
	if got != want {
		t.Fatalf("plan =\n  %s\nwant\n  %s", got, want)
	}
}

// TestExecutedPlanFilterSummary pins the post-execution rendering:
// real prune counters from a checkpointed, multi-page table.
func TestExecutedPlanFilterSummary(t *testing.T) {
	eng, db := newTxnEngine(t, 4000, false)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	h, _ := db.File("kv")
	pages := len(h.PageIDs())
	if pages < 4 {
		t.Fatalf("need a multi-page table, got %d pages", pages)
	}
	res, _, err := eng.ExecuteSQL("SELECT k FROM kv WHERE k < 40", ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	idx := strings.Index(res.Plan, " | filter(kv): pruned=")
	if idx < 0 {
		t.Fatalf("executed plan missing filter summary: %s", res.Plan)
	}
	if !strings.HasSuffix(res.Plan, fmt.Sprintf("/%d kernel[k < 40]", pages)) {
		t.Fatalf("summary denominator should be the page count %d: %s", pages, res.Plan)
	}
}
