// Engine-level crash matrix: the fault harness drives the real DB
// through crashes at EVERY WAL write, torn writes of seeded lengths,
// failed sync barriers, and injected I/O errors, then reopens from the
// frozen bytes and checks the durability contract:
//
//   - every acknowledged operation (a row write is a committed
//     transaction) survives recovery byte-identically;
//   - at most the single in-flight operation may differ, and only
//     between its before/after/absent versions;
//   - recovery itself never fails on a crash-consistent image.
//
// Schedules are deterministic. ADM_FAULT_SEED overrides the torn-write
// seed so CI can replay the matrix under different schedules.
package fault_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/fault"
	"github.com/adm-project/adm/internal/storage"
)

// faultSeed returns the schedule seed (ADM_FAULT_SEED or a fixed
// default) so a CI failure names a replayable schedule.
func faultSeed(t *testing.T) uint64 {
	if s := os.Getenv("ADM_FAULT_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			t.Fatalf("bad ADM_FAULT_SEED %q: %v", s, err)
		}
		return v
	}
	return 0xADC0FFEE
}

// ---------------------------------------------------------------------------
// Workload + shadow model (mirrors the storage-level crash workload,
// sized down so the full per-write matrix stays fast).

type op struct {
	kind string
	key  int64
	tup  storage.Tuple
}

func mkTuple(key int64, rev int) storage.Tuple {
	pay := strings.Repeat(fmt.Sprintf("k%dr%d.", key, rev), 80)
	return storage.Tuple{storage.IntValue(key), storage.StringValue(pay)}
}

func workload() []op {
	ops := []op{{kind: "create"}}
	for i := int64(0); i < 12; i++ {
		ops = append(ops, op{kind: "insert", key: i, tup: mkTuple(i, 0)})
	}
	ops = append(ops, op{kind: "checkpoint"})
	ops = append(ops,
		op{kind: "delete", key: 3},
		op{kind: "delete", key: 8},
		op{kind: "update", key: 5, tup: mkTuple(5, 1)},
		op{kind: "update", key: 10, tup: mkTuple(10, 1)},
		op{kind: "index"},
	)
	for i := int64(12); i < 18; i++ {
		ops = append(ops, op{kind: "insert", key: i, tup: mkTuple(i, 0)})
	}
	return ops
}

type model struct {
	rows map[int64][]byte
	rids map[int64]storage.RID
}

func newModel() *model {
	return &model{rows: map[int64][]byte{}, rids: map[int64]storage.RID{}}
}

// commit runs fn in a transaction of its own and commits it.
func commit(db *storage.DB, fn func(tx *storage.Txn) error) error {
	tx := db.Txns().Begin()
	if err := fn(tx); err != nil {
		return errors.Join(err, tx.Rollback())
	}
	return tx.Commit()
}

// run executes ops until the first error (the crash), returning the
// acked model and the index of the op that was in flight (len(ops) if
// the workload completed). Every row write is a transaction of its
// own; it is acked when its commit returns.
func run(db *storage.DB, ops []op) (*model, int) {
	m := newModel()
	for i, o := range ops {
		var err error
		h, _ := db.File("t")
		switch o.kind {
		case "create":
			_, err = db.CreateFile("t")
		case "insert":
			var rid storage.RID
			err = commit(db, func(tx *storage.Txn) (err error) {
				rid, err = tx.Insert(h, o.tup)
				return err
			})
			if err == nil {
				m.rows[o.key] = storage.EncodeTuple(o.tup)
				m.rids[o.key] = rid
			}
		case "delete":
			err = commit(db, func(tx *storage.Txn) error { return tx.Delete(h, m.rids[o.key]) })
			if err == nil {
				delete(m.rows, o.key)
				delete(m.rids, o.key)
			}
		case "update":
			var rid storage.RID
			err = commit(db, func(tx *storage.Txn) (err error) {
				rid, err = tx.Update(h, m.rids[o.key], o.tup)
				return err
			})
			if err == nil {
				m.rows[o.key] = storage.EncodeTuple(o.tup)
				m.rids[o.key] = rid
			}
		case "index":
			err = db.LogIndex(storage.IndexDef{Name: "t_k0", File: "t", Col: 0})
		case "checkpoint":
			err = db.Checkpoint()
		}
		if err != nil {
			return m, i
		}
	}
	return m, len(ops)
}

// scanRows reads the rows a fresh snapshot of the recovered table sees.
func scanRows(t *testing.T, db *storage.DB) map[int64][]byte {
	t.Helper()
	h, ok := db.File("t")
	if !ok {
		return map[int64][]byte{}
	}
	out := map[int64][]byte{}
	snap := db.Txns().Begin()
	defer snap.Rollback()
	err := snap.View(h).Scan(func(rid storage.RID, tu storage.Tuple) bool {
		k := tu[0].Int
		if _, dup := out[k]; dup {
			t.Fatalf("key %d recovered twice", k)
		}
		out[k] = storage.EncodeTuple(tu)
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// checkDurability asserts the recovered rows honour the contract given
// the acked model and the in-flight op (ops[inflight] if in range).
func checkDurability(t *testing.T, tag string, got map[int64][]byte, m *model, ops []op, inflight int) {
	t.Helper()
	touched := int64(-1)
	var allowed [][]byte
	if inflight < len(ops) {
		o := ops[inflight]
		switch o.kind {
		case "insert", "update":
			touched = o.key
			allowed = append(allowed, storage.EncodeTuple(o.tup))
		case "delete":
			touched = o.key
		}
		if prev, ok := m.rows[touched]; ok {
			allowed = append(allowed, prev)
		}
	}
	for k, v := range m.rows {
		if k == touched {
			continue
		}
		if !bytes.Equal(got[k], v) {
			t.Fatalf("%s: acked key %d lost or altered", tag, k)
		}
	}
	for k, v := range got {
		if k == touched {
			okv := false
			for _, a := range allowed {
				if bytes.Equal(a, v) {
					okv = true
					break
				}
			}
			if !okv {
				t.Fatalf("%s: in-flight key %d has phantom bytes", tag, k)
			}
			continue
		}
		if want, ok := m.rows[k]; !ok {
			t.Fatalf("%s: phantom key %d", tag, k)
		} else if !bytes.Equal(want, v) {
			t.Fatalf("%s: key %d bytes differ", tag, k)
		}
	}
}

// crashRun executes the workload with a crash armed on the WAL disk,
// then recovers from the frozen bytes and checks durability. Returns
// the recovered DB for extra assertions.
func crashRun(t *testing.T, tag string, arm func(*fault.Disk)) (*storage.DB, *model, int, []op) {
	t.Helper()
	walMem, dataMem := storage.NewMemDisk(), storage.NewMemDisk()
	wd := fault.Wrap(walMem)
	arm(wd)
	ops := workload()
	m, inflight := newModel(), 0
	db, err := storage.Open(wd, dataMem, storage.DBOptions{})
	if err != nil {
		// Crash during Open (e.g. on the magic write): nothing acked.
		if !errors.Is(err, fault.ErrCrashed) && !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: open failed outside injection: %v", tag, err)
		}
	} else {
		m, inflight = run(db, ops)
	}
	db2, err := storage.Open(storage.NewMemDiskFrom(walMem.Bytes()), storage.NewMemDiskFrom(dataMem.Bytes()), storage.DBOptions{})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", tag, err)
	}
	checkDurability(t, tag, scanRows(t, db2), m, ops, inflight)
	return db2, m, inflight, ops
}

// ---------------------------------------------------------------------------
// The matrix.

// TestCrashAtEveryWALWrite crashes the engine at every single WAL
// write with nothing torn (a clean record boundary) and checks that
// exactly the durable prefix is recovered: RecordsScanned == n-2 for a
// crash at write n (write 1 is the magic), and every acked op
// survives byte-identically.
func TestCrashAtEveryWALWrite(t *testing.T) {
	// Golden run to size the matrix.
	walMem, dataMem := storage.NewMemDisk(), storage.NewMemDisk()
	wd := fault.Wrap(walMem)
	db, err := storage.Open(wd, dataMem, storage.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m, done := run(db, workload()); done != len(workload()) {
		t.Fatalf("golden run stopped at op %d with %d rows", done, len(m.rows))
	}
	writes, _, _ := wd.Counts()
	if writes < 20 {
		t.Fatalf("workload produced only %d WAL writes", writes)
	}

	for n := 1; n <= writes; n++ {
		db2, _, _, _ := crashRun(t, fmt.Sprintf("write %d", n), func(d *fault.Disk) {
			d.CrashAtWrite(n, 0)
		})
		if n >= 2 {
			if got := db2.Stats().Recovery.RecordsScanned; got != n-2 {
				t.Fatalf("crash at write %d: scanned %d records, want %d", n, got, n-2)
			}
		}
	}
}

// TestSeededTornWrites crashes at seeded write ordinals with seeded
// torn prefixes — mid-record torn writes the boundary matrix cannot
// produce. The schedule derives from ADM_FAULT_SEED.
func TestSeededTornWrites(t *testing.T) {
	seed := faultSeed(t)
	rng := fault.NewRand(seed)

	walMem, dataMem := storage.NewMemDisk(), storage.NewMemDisk()
	wd := fault.Wrap(walMem)
	db, err := storage.Open(wd, dataMem, storage.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run(db, workload())
	writes, _, _ := wd.Counts()

	for i := 0; i < 24; i++ {
		n := 2 + rng.Intn(writes-1)
		torn := rng.Intn(64)
		crashRun(t, fmt.Sprintf("seed %#x iter %d (write %d torn %d)", seed, i, n, torn), func(d *fault.Disk) {
			d.CrashAtWrite(n, torn)
		})
	}
}

// TestCrashAtEverySyncBarrier fails each fsync barrier in turn. The
// record bytes reached the (non-volatile in this model) backing store,
// so the in-flight op may surface after recovery — but unacked is the
// most it can be; acked ops must all survive.
func TestCrashAtEverySyncBarrier(t *testing.T) {
	walMem, dataMem := storage.NewMemDisk(), storage.NewMemDisk()
	wd := fault.Wrap(walMem)
	db, err := storage.Open(wd, dataMem, storage.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run(db, workload())
	_, _, syncs := wd.Counts()
	if syncs < 10 {
		t.Fatalf("workload produced only %d sync barriers", syncs)
	}
	for n := 1; n <= syncs; n++ {
		crashRun(t, fmt.Sprintf("sync %d", n), func(d *fault.Disk) {
			d.CrashAtSync(n)
		})
	}
}

// TestCrashDuringCheckpointFlush crashes the DATA disk at each write
// during the checkpoint flush: the WAL survives intact, so recovery
// must fall back to full redo and lose nothing that was acked.
func TestCrashDuringCheckpointFlush(t *testing.T) {
	// Golden run counting data-disk writes.
	walMem, dataMem := storage.NewMemDisk(), storage.NewMemDisk()
	dd := fault.Wrap(dataMem)
	db, err := storage.Open(walMem, dd, storage.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run(db, workload())
	writes, _, _ := dd.Counts()
	if writes < 3 {
		t.Fatalf("checkpoint produced only %d data writes", writes)
	}

	ops := workload()
	for n := 1; n <= writes; n++ {
		walMem, dataMem := storage.NewMemDisk(), storage.NewMemDisk()
		dd := fault.Wrap(dataMem)
		dd.CrashAtWrite(n, fault.NewRand(uint64(n)).Intn(256))
		db, err := storage.Open(walMem, dd, storage.DBOptions{})
		if err != nil {
			if errors.Is(err, fault.ErrCrashed) {
				continue // crash on the page-file magic write
			}
			t.Fatalf("data write %d: open: %v", n, err)
		}
		m, inflight := run(db, ops)
		db2, err := storage.Open(storage.NewMemDiskFrom(walMem.Bytes()), storage.NewMemDiskFrom(dataMem.Bytes()), storage.DBOptions{})
		if err != nil {
			t.Fatalf("data write %d: recovery: %v", n, err)
		}
		checkDurability(t, fmt.Sprintf("data write %d", n), scanRows(t, db2), m, ops, inflight)
		// A data-disk crash must not have quarantined anything the
		// checkpoint record never referenced.
		if q := db2.Stats().Recovery.PagesQuarantined; q != 0 {
			t.Fatalf("data write %d: quarantined %d pages on crash-consistent image", n, q)
		}
	}
}

// TestInjectedWALWriteErrorPoisonsDB: a one-shot write error (disk
// keeps running) must poison the DB — it cannot tell how far the
// append got — and recovery must see exactly the acked state.
func TestInjectedWALWriteErrorPoisonsDB(t *testing.T) {
	walMem, dataMem := storage.NewMemDisk(), storage.NewMemDisk()
	wd := fault.Wrap(walMem)
	wd.FailWrite(9) // mid-insert-run
	db, err := storage.Open(wd, dataMem, storage.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ops := workload()
	m, inflight := run(db, ops)
	if inflight == len(ops) {
		t.Fatal("workload survived an injected write error")
	}
	if err := db.Err(); !errors.Is(err, storage.ErrDBFailed) {
		t.Fatalf("Err() = %v, want ErrDBFailed", err)
	}
	h, _ := db.File("t")
	if err := commit(db, func(tx *storage.Txn) error {
		_, err := tx.Insert(h, mkTuple(99, 0))
		return err
	}); !errors.Is(err, storage.ErrDBFailed) {
		t.Fatalf("post-poison insert = %v, want ErrDBFailed", err)
	}
	db2, err := storage.Open(storage.NewMemDiskFrom(walMem.Bytes()), storage.NewMemDiskFrom(dataMem.Bytes()), storage.DBOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	// The failed write never reached the disk, so there is no in-flight
	// ambiguity: recovered state == acked state exactly.
	got := scanRows(t, db2)
	if len(got) != len(m.rows) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(m.rows))
	}
	checkDurability(t, "injected write", got, m, ops, len(ops))
}

// TestInjectedReadErrorFailsOpen: recovery reads that error out must
// fail Open loudly, not fabricate state.
func TestInjectedReadErrorFailsOpen(t *testing.T) {
	walMem, dataMem := storage.NewMemDisk(), storage.NewMemDisk()
	db, err := storage.Open(walMem, dataMem, storage.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run(db, workload())

	wd := fault.Wrap(storage.NewMemDiskFrom(walMem.Bytes()))
	wd.FailRead(1)
	if _, err := storage.Open(wd, storage.NewMemDiskFrom(dataMem.Bytes()), storage.DBOptions{}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("open with failing read = %v, want ErrInjected", err)
	}
}

// TestRandIsStable pins the splitmix64 stream: CI seeds must mean the
// same schedule forever.
func TestRandIsStable(t *testing.T) {
	r := fault.NewRand(42)
	got := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	want := []uint64{0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitmix64(42) stream[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
}
