// Recovery benchmark: how fast the WAL redo pass brings a crashed
// store back. Two variants bound the recovery envelope — RecoveryWAL
// replays every mutation from the log (no checkpoint, the worst
// case), RecoveryCkpt loads checksummed frames and replays only the
// post-checkpoint tail (the steady state).
package experiments

import (
	"fmt"
	"time"

	"github.com/adm-project/adm/internal/storage"
)

// recoveryFixture builds a crashed-disk image pair: rows inserted
// into one heap with a secondary index logged, optionally
// checkpointed, then "crashed" by snapshotting the disks. appends is
// the number of WAL records it logged and tail how many of them
// follow the last checkpoint (all of them when there is none): what
// recovery must scan and replay, record for record.
func recoveryFixture(rows int, checkpoint bool) (walBytes, dataBytes []byte, appends, tail uint64, err error) {
	wal, data := storage.NewMemDisk(), storage.NewMemDisk()
	db, err := storage.Open(wal, data, storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	h, err := db.CreateFile("bench")
	if err != nil {
		return nil, nil, 0, 0, err
	}
	txn := db.Txns().Begin()
	for i := 0; i < rows; i++ {
		t := storage.Tuple{
			storage.IntValue(int64(i)),
			storage.StringValue(fmt.Sprintf("payload-%08d", i)),
			storage.IntValue(int64(i % 97)),
		}
		if _, err := txn.Insert(h, t); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	if err := txn.Commit(); err != nil {
		return nil, nil, 0, 0, err
	}
	if err := db.LogIndex(storage.IndexDef{Name: "bench_k", File: "bench", Col: 0}); err != nil {
		return nil, nil, 0, 0, err
	}
	var atCheckpoint uint64
	if checkpoint {
		if err := db.Checkpoint(); err != nil {
			return nil, nil, 0, 0, err
		}
		atCheckpoint = db.Stats().WALAppends
	} else if err := db.WAL().Sync(); err != nil {
		return nil, nil, 0, 0, err
	}
	appends = db.Stats().WALAppends
	return wal.Bytes(), data.Bytes(), appends, appends - atCheckpoint, nil
}

// RunRecoveryBench measures crash recovery (Open over snapshotted
// disks, including index backfill): RecoveryWAL is pure redo,
// RecoveryCkpt frame loads plus an empty tail. Workers is always 1 —
// recovery is a single-threaded log scan by design. Recovered rows
// per second is reported; what is gated is the work, as exact counts
// that repeat on any host: RecoveryStats.RecordsScanned must equal the
// records the fixture appended and RecordsReplayed those after its
// checkpoint, so a log re-read per record or a checkpoint that stopped
// bounding redo shows up as a count.
func RunRecoveryBench(m *Measurements, rows, repeats int) error {
	for _, variant := range []struct {
		name       string
		checkpoint bool
	}{
		{"RecoveryWAL", false},
		{"RecoveryCkpt", true},
	} {
		walBytes, dataBytes, appends, tail, err := recoveryFixture(rows, variant.checkpoint)
		if err != nil {
			return err
		}
		for rep := 0; rep < repeats; rep++ {
			w := storage.NewMemDiskFrom(append([]byte(nil), walBytes...))
			d := storage.NewMemDiskFrom(append([]byte(nil), dataBytes...))
			start := time.Now()
			db, err := storage.Open(w, d, storage.DBOptions{})
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			h, ok := db.File("bench")
			if !ok || h.Count() != rows {
				return fmt.Errorf("recovery bench: recovered %d rows, want %d", h.Count(), rows)
			}
			if tree, ok := db.Index("bench_k"); !ok || tree.Len() != rows {
				return fmt.Errorf("recovery bench: index not rebuilt")
			}
			rec := db.Stats().Recovery
			m.Add(series(variant.name, 1), float64(rows)/elapsed.Seconds())
			m.Add(variant.name+".scanned", float64(rec.RecordsScanned))
			m.Add(variant.name+".appends", float64(appends))
			m.Add(variant.name+".replayed", float64(rec.RecordsReplayed))
			m.Add(variant.name+".tail", float64(tail))
		}
	}
	return nil
}
