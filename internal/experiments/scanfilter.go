// ScanFilter benchmark: the vectorized filter path (typed predicate
// kernels over selection vectors plus zone-map page pruning) against
// the boxed tuple-at-a-time reference, on the workload the machinery
// targets — a ~1% selective predicate over a clustered key on a
// checkpointed multi-page table. Both variants run back-to-back in
// each repeat so correlated host load cancels out of the ratio.
//
// SnapshotScan benchmark: what the CC layer's boundary costs. A
// snapshot scan judges every row version it decodes; its witness reads
// the same table's pages version-blind — the HeapFile reader recovery
// and CREATE INDEX use — with the same workers and the same filter
// kernel, so the ratio prices the visibility verdicts.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// scanFilterEngine seeds s(k INT, v INT) with k = 0..rows-1 in insert
// order (clustered, so zone maps carry disjoint k ranges per page) in
// one committed transaction, analyzes, and checkpoints — the durable
// build point that installs the zone maps the kernel path prunes with.
func scanFilterEngine(rows int) (*query.Engine, error) {
	cat := query.NewCatalog(4096)
	e := query.NewEngine(cat, trace.New(), nil)
	if _, err := e.Exec("CREATE TABLE s (k INT, v INT)"); err != nil {
		return nil, err
	}
	if err := load(cat, "s", rows, func(i int) storage.Tuple { return intRow(int64(i), int64(i*13%1000)) }); err != nil {
		return nil, err
	}
	if err := cat.Analyze("s"); err != nil {
		return nil, err
	}
	if err := cat.Checkpoint(); err != nil {
		return nil, err
	}
	return e, nil
}

// RunSnapshotScanBench measures a 1%-selective filter on the
// unclustered column — no page is pruned, every row version is judged
// — run by two concurrent callers, each at `workers`: as SQL, under
// its own snapshot (SnapshotScan), and as the same
// kernel over the same pages read version-blind (BlindScan, the
// witness of the snapshot-scan gate). Throughput is table rows per
// second over both callers.
func RunSnapshotScanBench(m *Measurements, rows, workers, repeats int) error {
	const callers, scans = 2, 50
	e, err := scanFilterEngine(rows)
	if err != nil {
		return err
	}
	t, err := e.Catalog().Table("s")
	if err != nil {
		return err
	}
	want := 0
	for i := 0; i < rows; i++ {
		if i*13%1000 < 10 {
			want++
		}
	}
	snapshot := func() (int, error) {
		res, _, err := e.ExecuteSQL("SELECT k FROM s WHERE v < 10", query.ExecOptions{Workers: workers})
		if err != nil {
			return 0, err
		}
		return len(res.Rows), nil
	}
	blind := func() (int, error) {
		k := operators.NewFilterKernel([]operators.ColPred{{Col: 1, Op: operators.KernLT, Lit: storage.IntValue(10)}}, nil, nil)
		rows, err := operators.DrainParallelBatches(operators.NewHeapBatchesKernel(t.Heap, k),
			operators.ParallelConfig{Workers: workers})
		return len(rows), err
	}
	variants := []struct {
		bench string
		scan  func() (int, error)
	}{{"SnapshotScan", snapshot}, {"BlindScan", blind}}
	for rep := -1; rep < repeats; rep++ { // repeat -1 warms up, as above
		for _, v := range variants {
			var wg sync.WaitGroup
			errs := make([]error, callers)
			start := time.Now()
			for c := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < scans && errs[c] == nil; i++ {
						n, err := v.scan()
						if err == nil && n != want {
							err = fmt.Errorf("%s produced %d rows, want %d", v.bench, n, want)
						}
						errs[c] = err
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			if rep >= 0 {
				m.Add(series(v.bench, workers), float64(callers*scans*rows)/elapsed.Seconds())
			}
		}
	}
	return nil
}

// RunScanFilterBench measures the 1%-selectivity scan at `workers`
// with the kernel path (ScanFilter) and with NoVectorKernels
// (ScanFilterBoxed, the witness of the filter-kernels gate).
// Throughput is table rows per second (the scan's feed rate; output
// is ~1% of it, so rows/sec measures how fast the filter disposes of
// input).
func RunScanFilterBench(m *Measurements, rows, workers, repeats int) error {
	e, err := scanFilterEngine(rows)
	if err != nil {
		return err
	}
	want := rows / 100
	sql := fmt.Sprintf("SELECT v FROM s WHERE k < %d", want)
	// Repeat -1 is an untimed round of each variant: it warms the
	// buffer pool and the plan path so repeat 0 is not a cold outlier.
	for rep := -1; rep < repeats; rep++ {
		for _, v := range []struct {
			bench string
			boxed bool
		}{{"ScanFilter", false}, {"ScanFilterBoxed", true}} {
			start := time.Now()
			res, _, err := e.ExecuteSQL(sql, query.ExecOptions{
				Workers: workers, NoVectorKernels: v.boxed,
			})
			elapsed := time.Since(start)
			if err != nil {
				return err
			}
			if len(res.Rows) != want {
				return fmt.Errorf("%s produced %d rows, want %d", v.bench, len(res.Rows), want)
			}
			if rep >= 0 {
				m.Add(series(v.bench, workers), float64(rows)/elapsed.Seconds())
			}
		}
	}
	return nil
}
