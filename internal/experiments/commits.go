// Concurrent-commit benchmark: the group-commit gate. N sessions run
// small mixed read/write transactions against one SyncManual store
// whose WAL fsync costs a fixed simulated latency. One session pays
// that latency on every commit; sixteen sessions share it through the
// group-commit leader, so commits/sec must scale well past the
// single-session fsync-per-commit rate. The 16-session/1-session
// ratio is the group-commit gate (gates.go).
package experiments

import (
	"fmt"
	"sync"
	"time"

	"github.com/adm-project/adm/internal/fault"
	"github.com/adm-project/adm/internal/storage"
)

// commitSyncDelay is the simulated fsync latency. MemDisk.Sync is
// free, which would hide the entire group-commit win; 200µs is the
// order of a fast NVMe flush and keeps the bench fsync-bound, so the
// measured scaling reflects batching rather than CPU parallelism
// (it holds even on a single-core host).
const commitSyncDelay = 200 * time.Microsecond

// commitPoolRows is the size of the shared contention pool. A quarter
// of each session's transactions update a pool row, so
// first-claimer-wins conflicts (and thus abort_rate) occur under load
// without an abort storm drowning the group-commit signal: a claim is
// held until its commit publishes (~one fsync), so a hotter pool
// turns most attempts into retries.
const commitPoolRows = 64

// syncDelayDisk charges commitSyncDelay on every Sync. Writes and
// reads pass through untouched.
type syncDelayDisk struct {
	storage.DiskFile
	delay time.Duration
}

func (d *syncDelayDisk) Sync() error {
	time.Sleep(d.delay)
	return d.DiskFile.Sync()
}

// commitBenchRun drives `sessions` concurrent sessions, each
// committing txnsPerSession transactions (read a pool row, insert a
// private row, update a contended pool row). Returns commits/sec and
// the abort rate (aborts / attempts).
func commitBenchRun(sessions, txnsPerSession int) (rate, abortRate float64, err error) {
	wal := &syncDelayDisk{DiskFile: storage.NewMemDisk(), delay: commitSyncDelay}
	db, err := storage.Open(wal, storage.NewMemDisk(), storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		return 0, 0, err
	}
	h, err := db.CreateFile("bench")
	if err != nil {
		return 0, 0, err
	}

	// Seed the contention pool in one committed transaction and track
	// each row's current RID: updates move rows to new versions, so
	// sessions look the live RID up under poolMu and the winner
	// publishes the replacement after commit.
	var poolMu sync.Mutex
	pool := make([]storage.RID, commitPoolRows)
	seed := db.Txns().Begin()
	for i := range pool {
		rid, err := seed.Insert(h, storage.Tuple{
			storage.IntValue(int64(i)),
			storage.StringValue(fmt.Sprintf("pool-%04d", i)),
		})
		if err != nil {
			return 0, 0, err
		}
		pool[i] = rid
	}
	if err := seed.Commit(); err != nil {
		return 0, 0, err
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		aborts int
		firstE error
	)
	start := time.Now()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := fault.NewRand(uint64(0xC0FFEE + 0x9E37*s))
			fail := func(err error) {
				mu.Lock()
				if firstE == nil {
					firstE = err
				}
				mu.Unlock()
			}
			myAborts := 0
			for committed := 0; committed < txnsPerSession; {
				tx := db.Txns().Begin()
				// Read: one pool row under this snapshot. The RID can be
				// stale (row moved by a concurrent update); a miss is fine.
				poolMu.Lock()
				rrid := pool[rng.Intn(commitPoolRows)]
				poolMu.Unlock()
				_, _ = tx.View(h).Get(rrid)
				// Write 1: a private insert (never conflicts).
				key := int64(1_000_000 + s*txnsPerSession + committed)
				if _, err := tx.Insert(h, storage.Tuple{
					storage.IntValue(key),
					storage.StringValue("row"),
				}); err != nil {
					_ = tx.Rollback()
					fail(err)
					return
				}
				// Write 2 (every 4th txn): update a contended pool row.
				// Losing the claim race is a real abort — roll back
				// (undoing the insert too), back off roughly one
				// claim-hold time and retry the whole transaction.
				idx := -1
				var urid, nrid storage.RID
				if committed%4 == 0 {
					idx = rng.Intn(commitPoolRows)
					poolMu.Lock()
					urid = pool[idx]
					poolMu.Unlock()
					var err error
					_, nrid, err = tx.Update(h, urid, storage.Tuple{
						storage.IntValue(int64(idx)),
						storage.StringValue("pool-updated"),
					})
					if err != nil {
						myAborts++
						_ = tx.Rollback()
						time.Sleep(commitSyncDelay)
						continue
					}
				}
				if err := tx.Commit(); err != nil {
					fail(err)
					return
				}
				if idx >= 0 {
					poolMu.Lock()
					if pool[idx] == urid {
						pool[idx] = nrid
					}
					poolMu.Unlock()
				}
				committed++
			}
			mu.Lock()
			aborts += myAborts
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstE != nil {
		return 0, 0, firstE
	}
	commits := sessions * txnsPerSession
	rate = float64(commits) / elapsed.Seconds()
	abortRate = float64(aborts) / float64(aborts+commits)
	return rate, abortRate, nil
}

// RunCommitBench measures concurrent commit throughput (commits/sec)
// and the abort rate at each session count, the counts interleaved
// inside every repeat. The group-commit gate reads the 16-session
// rate against the single-session one.
func RunCommitBench(m *Measurements, sessions []int, txnsPerSession, repeats int) error {
	for rep := 0; rep < repeats; rep++ {
		for _, s := range sessions {
			rate, abortRate, err := commitBenchRun(s, txnsPerSession)
			if err != nil {
				return fmt.Errorf("commit bench (%d sessions): %w", s, err)
			}
			m.Add(series("CommitTxn", s), rate)
			m.Add(series("CommitTxn", s)+".abort_rate", abortRate)
		}
	}
	return nil
}
