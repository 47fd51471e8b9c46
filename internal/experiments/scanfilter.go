// ScanFilter benchmark: the vectorized filter path (typed predicate
// kernels over selection vectors plus zone-map page pruning) against
// the boxed tuple-at-a-time reference, on the workload the machinery
// targets — a ~1% selective predicate over a clustered key on a
// checkpointed multi-page table. Both variants run back-to-back in
// each repeat so correlated host load cancels out of the ratio.
package experiments

import (
	"fmt"
	"time"

	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// scanFilterEngine seeds s(k INT, v INT) with k = 0..rows-1 in insert
// order (clustered, so zone maps carry disjoint k ranges per page),
// analyzes, and checkpoints — the durable build point that installs
// the zone maps the kernel path prunes with.
func scanFilterEngine(rows int) (*query.Engine, error) {
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual, BufferFrames: 4096})
	if err != nil {
		return nil, err
	}
	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		return nil, err
	}
	e := query.NewEngine(cat, trace.New(), nil)
	if _, err := e.Exec("CREATE TABLE s (k INT, v INT)"); err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		if _, err := cat.Insert("s", intRow(int64(i), int64(i*13%1000))); err != nil {
			return nil, err
		}
	}
	if err := cat.Analyze("s"); err != nil {
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	return e, nil
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
