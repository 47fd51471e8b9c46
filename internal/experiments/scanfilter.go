// ScanFilter benchmark: the vectorized filter path (typed predicate
// kernels over selection vectors plus zone-map page pruning) against
// the boxed tuple-at-a-time reference, on the workload the machinery
// targets — a ~1% selective predicate over a clustered key on a
// checkpointed multi-page table. Both variants run back-to-back in
// each repeat so correlated host load cancels out of the ratio.
//
// SnapshotScan benchmark: what the CC layer's boundary costs. Every
// other fixture here loads through Catalog.Insert — plain records,
// which a snapshot scan passes without one visibility check — while a
// server only ever writes versioned records, so no in-process bench
// could see a slow Visibility call. This one loads the same rows
// through a session and reads them against the plain load.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/session"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// scanFilterEngine seeds s(k INT, v INT) with k = 0..rows-1 in insert
// order (clustered, so zone maps carry disjoint k ranges per page),
// analyzes, and checkpoints — the durable build point that installs
// the zone maps the kernel path prunes with.
func scanFilterEngine(rows int) (*query.Engine, error) {
	e, _, err := scanFilterDB(rows, false)
	return e, err
}

// scanFilterDB is scanFilterEngine with its DB, loading either plain
// records (Catalog.Insert) or, versioned, through one session's
// transaction — the records a server writes.
func scanFilterDB(rows int, versioned bool) (*query.Engine, *storage.DB, error) {
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual, BufferFrames: 4096})
	if err != nil {
		return nil, nil, err
	}
	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		return nil, nil, err
	}
	e := query.NewEngine(cat, trace.New(), nil)
	if _, err := e.Exec("CREATE TABLE s (k INT, v INT)"); err != nil {
		return nil, nil, err
	}
	if versioned {
		w := session.NewDBSession(e, db)
		if err := w.Begin(); err != nil {
			return nil, nil, err
		}
		for i := 0; i < rows; i++ {
			if _, err := w.Exec(fmt.Sprintf("INSERT INTO s VALUES (%d, %d)", i, i*13%1000)); err != nil {
				return nil, nil, err
			}
		}
		if err := w.Commit(); err != nil {
			return nil, nil, err
		}
	} else {
		for i := 0; i < rows; i++ {
			if _, err := cat.Insert("s", intRow(int64(i), int64(i*13%1000))); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := cat.Analyze("s"); err != nil {
		return nil, nil, err
	}
	if err := db.Checkpoint(); err != nil {
		return nil, nil, err
	}
	return e, db, nil
}

// RunSnapshotScanBench measures a 1%-selective filter on the
// unclustered column — no page is pruned, every row version is judged
// — run under its own snapshot by two concurrent callers, each at
// `workers`: over versioned records (SnapshotScan) and over the same
// rows as plain records (PlainScan, the witness of the snapshot-scan
// gate). Throughput is table rows per second over both callers.
func RunSnapshotScanBench(m *Measurements, rows, workers, repeats int) error {
	const callers, scans = 2, 50
	sql := "SELECT k FROM s WHERE v < 10"
	type fixture struct {
		bench string
		sess  [callers]*session.DBSession
	}
	fixtures := []fixture{{bench: "SnapshotScan"}, {bench: "PlainScan"}}
	for i := range fixtures {
		e, db, err := scanFilterDB(rows, i == 0)
		if err != nil {
			return err
		}
		for c := range fixtures[i].sess {
			fixtures[i].sess[c] = session.NewDBSession(e, db)
		}
	}
	want := 0
	for i := 0; i < rows; i++ {
		if i*13%1000 < 10 {
			want++
		}
	}
	for rep := -1; rep < repeats; rep++ { // repeat -1 warms up, as above
		for _, f := range fixtures {
			var wg sync.WaitGroup
			errs := make([]error, callers)
			start := time.Now()
			for c, sess := range f.sess {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < scans && errs[c] == nil; i++ {
						res, err := sess.ExecOpts(sql, query.ExecOptions{Workers: workers})
						if err == nil && len(res.Rows) != want {
							err = fmt.Errorf("%s produced %d rows, want %d", f.bench, len(res.Rows), want)
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
				m.Add(series(f.bench, workers), float64(callers*scans*rows)/elapsed.Seconds())
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
