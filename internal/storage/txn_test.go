// MVCC transaction tests: the snapshot-visibility/conflict matrix
// (insert/delete/update races, read-own-writes, first-committer-wins)
// plus a race-detector stress run driving 16 concurrent sessions
// through the group-commit leader.
package storage

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// newTxnDB opens a fresh DB (SyncManual — the group-commit policy)
// with one heap file.
func newTxnDB(t *testing.T) (*DB, *HeapFile) {
	t.Helper()
	db, err := Open(NewMemDisk(), NewMemDisk(), DBOptions{Sync: SyncManual})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	h, err := db.CreateFile("rows")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	return db, h
}

func rowTuple(k int64, rev int) Tuple {
	return Tuple{IntValue(k), StringValue(fmt.Sprintf("k%d-rev%d", k, rev))}
}

// keysOf extracts column-0 keys from a view's visible rows.
func keysOf(t *testing.T, v *HeapView) map[int64]bool {
	t.Helper()
	rows, err := v.All()
	if err != nil {
		t.Fatalf("all: %v", err)
	}
	out := map[int64]bool{}
	for _, r := range rows {
		out[r[0].Int] = true
	}
	return out
}

func wantKeys(t *testing.T, v *HeapView, want ...int64) {
	t.Helper()
	got := keysOf(t, v)
	if len(got) != len(want) {
		t.Fatalf("visible keys = %v, want %v", got, want)
	}
	for _, k := range want {
		if !got[k] {
			t.Fatalf("visible keys = %v, missing %d", got, k)
		}
	}
}

// TestSnapshotVisibilityMatrix is the table-driven visibility and
// conflict matrix. Each scenario scripts two transactions (and the
// autocommit heap) and states what every observer must see.
func TestSnapshotVisibilityMatrix(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, db *DB, h *HeapFile)
	}{
		{"uncommitted insert invisible to others, visible to self", func(t *testing.T, db *DB, h *HeapFile) {
			t1, t2 := db.Txns().Begin(), db.Txns().Begin()
			defer t1.Rollback()
			defer t2.Rollback()
			if _, err := t1.Insert(h, rowTuple(1, 0)); err != nil {
				t.Fatal(err)
			}
			wantKeys(t, t1.View(h), 1) // read-own-writes
			wantKeys(t, t2.View(h))    // snapshot isolation
		}},
		{"commit visible only to later snapshots", func(t *testing.T, db *DB, h *HeapFile) {
			t1 := db.Txns().Begin()
			if _, err := t1.Insert(h, rowTuple(1, 0)); err != nil {
				t.Fatal(err)
			}
			before := db.Txns().Begin() // snapshot predates the commit
			defer before.Rollback()
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			after := db.Txns().Begin()
			defer after.Rollback()
			wantKeys(t, before.View(h)) // repeatable: still empty
			wantKeys(t, after.View(h), 1)
		}},
		{"delete hides from later snapshots, not earlier ones", func(t *testing.T, db *DB, h *HeapFile) {
			rid, err := insertRow(h, rowTuple(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			t1 := db.Txns().Begin()
			if err := t1.Delete(h, rid); err != nil {
				t.Fatal(err)
			}
			before := db.Txns().Begin()
			defer before.Rollback()
			wantKeys(t, t1.View(h)) // own delete: gone for self
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			after := db.Txns().Begin()
			defer after.Rollback()
			wantKeys(t, before.View(h), 1) // old snapshot keeps the row
			wantKeys(t, after.View(h))
		}},
		{"update: old snapshot sees old version, new sees new", func(t *testing.T, db *DB, h *HeapFile) {
			rid, err := insertRow(h, rowTuple(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			t1 := db.Txns().Begin()
			if _, err := t1.Update(h, rid, rowTuple(1, 1)); err != nil {
				t.Fatal(err)
			}
			before := db.Txns().Begin()
			defer before.Rollback()
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			after := db.Txns().Begin()
			defer after.Rollback()
			for _, probe := range []struct {
				tx   *Txn
				want string
			}{{before, "k1-rev0"}, {after, "k1-rev1"}} {
				rows, err := probe.tx.View(h).All()
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != 1 || rows[0][1].Str != probe.want {
					t.Fatalf("saw %v, want one row %q", rows, probe.want)
				}
			}
		}},
		{"delete-delete race: first claimer wins", func(t *testing.T, db *DB, h *HeapFile) {
			rid, err := insertRow(h, rowTuple(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			t1, t2 := db.Txns().Begin(), db.Txns().Begin()
			defer t1.Rollback()
			defer t2.Rollback()
			if err := t1.Delete(h, rid); err != nil {
				t.Fatal(err)
			}
			if err := t2.Delete(h, rid); !errors.Is(err, ErrWriteConflict) {
				t.Fatalf("second claim err = %v, want ErrWriteConflict", err)
			}
		}},
		{"update-update race: loser conflicts even after winner commits", func(t *testing.T, db *DB, h *HeapFile) {
			rid, err := insertRow(h, rowTuple(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			t1, t2 := db.Txns().Begin(), db.Txns().Begin()
			defer t2.Rollback()
			if _, err := t1.Update(h, rid, rowTuple(1, 1)); err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			// t2's snapshot predates t1's commit: first committer won.
			if _, err := t2.Update(h, rid, rowTuple(1, 2)); !errors.Is(err, ErrWriteConflict) {
				t.Fatalf("loser update err = %v, want ErrWriteConflict", err)
			}
		}},
		{"aborted claim is stealable", func(t *testing.T, db *DB, h *HeapFile) {
			rid, err := insertRow(h, rowTuple(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			t1 := db.Txns().Begin()
			if err := t1.Delete(h, rid); err != nil {
				t.Fatal(err)
			}
			if err := t1.Rollback(); err != nil {
				t.Fatal(err)
			}
			t2 := db.Txns().Begin()
			if err := t2.Delete(h, rid); err != nil {
				t.Fatalf("steal after abort: %v", err)
			}
			if err := t2.Commit(); err != nil {
				t.Fatal(err)
			}
			after := db.Txns().Begin()
			defer after.Rollback()
			wantKeys(t, after.View(h))
		}},
		{"rollback undoes insert and restores claimed rows", func(t *testing.T, db *DB, h *HeapFile) {
			rid, err := insertRow(h, rowTuple(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			t1 := db.Txns().Begin()
			if _, err := t1.Insert(h, rowTuple(2, 0)); err != nil {
				t.Fatal(err)
			}
			if err := t1.Delete(h, rid); err != nil {
				t.Fatal(err)
			}
			if err := t1.Rollback(); err != nil {
				t.Fatal(err)
			}
			after := db.Txns().Begin()
			defer after.Rollback()
			wantKeys(t, after.View(h), 1)
		}},
		{"double delete in one txn conflicts with itself", func(t *testing.T, db *DB, h *HeapFile) {
			rid, err := insertRow(h, rowTuple(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			t1 := db.Txns().Begin()
			defer t1.Rollback()
			if err := t1.Delete(h, rid); err != nil {
				t.Fatal(err)
			}
			if err := t1.Delete(h, rid); !errors.Is(err, ErrWriteConflict) {
				t.Fatalf("second delete err = %v, want ErrWriteConflict", err)
			}
		}},
		{"read-only commit is free", func(t *testing.T, db *DB, h *HeapFile) {
			if _, err := insertRow(h, rowTuple(1, 0)); err != nil {
				t.Fatal(err)
			}
			before := db.Txns().Stats()
			tx := db.Txns().Begin()
			wantKeys(t, tx.View(h), 1)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			after := db.Txns().Stats()
			if after.Groups != before.Groups || after.Batched != before.Batched {
				t.Fatalf("read-only commit flushed a group: %+v -> %+v", before, after)
			}
		}},
		{"blind view reads every version but a rolled-back insert", func(t *testing.T, db *DB, h *HeapFile) {
			committed, err := insertRow(h, rowTuple(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			claimed, err := insertRow(h, rowTuple(2, 0))
			if err != nil {
				t.Fatal(err)
			}
			t1, t2, t3 := db.Txns().Begin(), db.Txns().Begin(), db.Txns().Begin()
			defer t1.Rollback()
			defer t2.Rollback()
			own, err := t1.Update(h, claimed, rowTuple(2, 1)) // claims k2-rev0
			if err != nil {
				t.Fatal(err)
			}
			inFlight, err := t2.Insert(h, rowTuple(3, 0))
			if err != nil {
				t.Fatal(err)
			}
			gone, err := t3.Insert(h, rowTuple(4, 0))
			if err != nil {
				t.Fatal(err)
			}
			if err := t3.Rollback(); err != nil { // tombstones k4-rev0
				t.Fatal(err)
			}
			want := map[RID]string{committed: "k1-rev0", claimed: "k2-rev0", own: "k2-rev1", inFlight: "k3-rev0"}
			labels := func(ts []Tuple) string {
				var out []string
				for _, tu := range ts {
					out = append(out, tu[1].Str)
				}
				slices.Sort(out)
				return fmt.Sprint(out)
			}
			wantLabels := "[k1-rev0 k2-rev0 k2-rev1 k3-rev0]"
			b := h.Blind()
			for rid, label := range want {
				if tu, err := b.Get(rid); err != nil || tu[1].Str != label {
					t.Fatalf("Get(%s) = %v, %v; want %s", rid, tu, err, label)
				}
			}
			if tu, err := b.Get(gone); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get of the rolled-back insert = %v, %v; want ErrNotFound", tu, err)
			}
			var tuples []Tuple
			rows, scanned := map[RID]string{}, map[RID]string{}
			for _, id := range h.PageIDs() {
				if tuples, err = b.PageTuplesInto(id, tuples); err != nil {
					t.Fatal(err)
				}
				ts, rids, err := b.PageRowsInto(id, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i, tu := range ts {
					rows[rids[i]] = tu[1].Str
				}
			}
			if err := b.Scan(func(rid RID, tu Tuple) bool { scanned[rid] = tu[1].Str; return true }); err != nil {
				t.Fatal(err)
			}
			all, err := b.All()
			if err != nil {
				t.Fatal(err)
			}
			if got := labels(tuples); got != wantLabels {
				t.Errorf("PageTuplesInto = %s, want %s", got, wantLabels)
			}
			if got := labels(all); got != wantLabels {
				t.Errorf("All = %s, want %s", got, wantLabels)
			}
			if !maps.Equal(rows, want) {
				t.Errorf("PageRowsInto = %v, want %v", rows, want)
			}
			if !maps.Equal(scanned, want) {
				t.Errorf("Scan = %v, want %v", scanned, want)
			}
		}},
		{"finished txn refuses further writes", func(t *testing.T, db *DB, h *HeapFile) {
			t1 := db.Txns().Begin()
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := t1.Insert(h, rowTuple(1, 0)); !errors.Is(err, ErrTxnDone) {
				t.Fatalf("insert after commit err = %v, want ErrTxnDone", err)
			}
			if err := t1.Commit(); !errors.Is(err, ErrTxnDone) {
				t.Fatalf("double commit err = %v, want ErrTxnDone", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, h := newTxnDB(t)
			tc.run(t, db, h)
		})
	}
}

// chunks counts the commit table's allocated chunks.
func (tm *TxnManager) chunks() int {
	n := 0
	for _, c := range *tm.dir.Load() {
		if c != nil {
			n++
		}
	}
	return n
}

// TestTxnRecoveryCommitTable crashes with a mix of committed, aborted
// and in-flight transactions — dense ids in chunk 0, then sparse ids
// straddling the edge of a far chunk — and checks the reopened DB
// reconstructs exactly the committed state in a table of the same
// shape.
func TestTxnRecoveryCommitTable(t *testing.T) {
	walMem, dataMem := NewMemDisk(), NewMemDisk()
	db, err := Open(walMem, dataMem, DBOptions{Sync: SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.CreateFile("rows")
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := insertRow(h, rowTuple(0, 0)) // txn 1
	if err != nil {
		t.Fatal(err)
	}
	// insert runs one single-row transaction and decides it.
	insert := func(k int64, decide func(*Txn) error) *Txn {
		t.Helper()
		tx := db.Txns().Begin()
		if _, err := tx.Insert(h, rowTuple(k, 0)); err != nil {
			t.Fatal(err)
		}
		if decide != nil {
			if err := decide(tx); err != nil {
				t.Fatal(err)
			}
		}
		return tx
	}
	insert(1, (*Txn).Commit)
	insert(2, (*Txn).Rollback)
	inflight := insert(3, nil)
	// Sparse: jump the id clock to the last slot of chunk 4, so the
	// next three writers land on 5<<12-1 (aborted: a claim on the seeded
	// row, which must stay visible), 5<<12 (committed) and 5<<12+1 (in
	// flight), and chunks 1-3 never exist.
	const edge = 5 << txnChunkBits
	db.Txns().nextID.Store(edge - 2)
	claimer := db.Txns().Begin()
	if err := claimer.Delete(h, seeded); err != nil {
		t.Fatal(err)
	}
	if err := claimer.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := insert(4, (*Txn).Commit).ID(); got != edge {
		t.Fatalf("id past the jump = %d, want %d", got, edge)
	}
	late := insert(5, nil)
	// Crash: reopen from the disks' surviving bytes, in-flight txns
	// never decided. (MemDisk writes are durable immediately; only the
	// missing commit record matters.)
	db2, err := Open(NewMemDiskFrom(walMem.Bytes()), NewMemDiskFrom(dataMem.Bytes()), DBOptions{Sync: SyncManual})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := db2.Stats().Recovery; got.TxnsCommitted != 3 || got.TxnsAborted != 2 {
		t.Fatalf("recovery txn counts = %+v, want 3 committed / 2 aborted", got)
	}
	for _, tm := range []*TxnManager{db.Txns(), db2.Txns()} {
		if got := tm.chunks(); got != 3 {
			t.Fatalf("table has %d chunks, want 3 (ids 1-4, %d, %d-%d)", got, edge-1, edge, edge+1)
		}
		for id, want := range map[uint64]bool{1: true, 2: true, 3: false, 4: false, edge - 1: false, edge: true, edge + 1: false, edge + 2: false, 2 << txnChunkBits: false} {
			if got := tm.committedAt(id, Snapshot{High: tm.high.Load()}); got != want {
				t.Fatalf("committedAt(%d) = %v, want %v", id, got, want)
			}
		}
		if !tm.isAborted(3) || !tm.isAborted(edge-1) || tm.isAborted(4) || tm.isAborted(edge+1) {
			t.Fatal("abort marks wrong after recovery")
		}
	}
	h2, ok := db2.File("rows")
	if !ok {
		t.Fatal("rows file lost")
	}
	tx := db2.Txns().Begin()
	defer tx.Rollback()
	wantKeys(t, tx.View(h2), 0, 1, 4) // only the committed rows survive
	// The recovered id clock must not reissue an in-flight id: the next
	// writer gets a fresh one, and the orphan versions stay invisible.
	if _, err := tx.Insert(h2, rowTuple(6, 0)); err != nil {
		t.Fatal(err)
	}
	if tx.ID() <= late.ID() || late.ID() <= inflight.ID() {
		t.Fatalf("recovered id clock %d not past in-flight ids %d, %d", tx.ID(), inflight.ID(), late.ID())
	}
	wantKeys(t, tx.View(h2), 0, 1, 4, 6)
}

// TestVerdictImmutable: whatever a transaction does after a snapshot
// was taken — commit, abort, stay in flight, or not even have drawn
// its id yet — the snapshot's verdict on its versions does not move.
func TestVerdictImmutable(t *testing.T) {
	db, h := newTxnDB(t)
	tm := db.Txns()
	writer := func() *Txn {
		tx := tm.Begin()
		if _, err := tx.Insert(h, rowTuple(int64(tm.nextID.Load()), 0)); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	before := writer()
	if err := before.Commit(); err != nil {
		t.Fatal(err)
	}
	commits, aborts, stays := writer(), writer(), writer()
	defer stays.Rollback()
	snap := tm.Begin()
	defer snap.Rollback()
	future := tm.nextID.Load() + 1
	ids := []uint64{before.ID(), commits.ID(), aborts.ID(), stays.ID(), future}
	verdicts := func() (out []bool) {
		for _, id := range ids {
			out = append(out, tm.visible(Version{Xmin: id}, snap.Snapshot()),
				tm.visible(Version{Xmin: before.ID(), Xmax: id}, snap.Snapshot()))
		}
		return out
	}
	want := verdicts()
	if fmt.Sprint(want[:2]) != "[true false]" {
		t.Fatalf("committed-before verdicts = %v", want[:2])
	}
	if err := commits.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := aborts.Rollback(); err != nil {
		t.Fatal(err)
	}
	late := writer()
	if late.ID() != future {
		t.Fatalf("late writer drew id %d, want %d", late.ID(), future)
	}
	if err := late.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := verdicts(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("verdicts moved after the snapshot:\n before %v\n after  %v", want, got)
	}
	wantKeys(t, snap.View(h), int64(before.ID())-1)
}

// TestCommitTableGrowth: the table is sized by writers. Read-only
// transactions draw no id and allocate no chunk; nothing is allocated
// at Open; writers straddling a chunk edge decide correctly; and the
// table never exceeds 8 bytes x (highest writing id rounded up to a
// chunk).
func TestCommitTableGrowth(t *testing.T) {
	db, h := newTxnDB(t)
	tm := db.Txns()
	if got := len(*tm.dir.Load()); got != 0 {
		t.Fatalf("Open allocated a %d-entry directory", got)
	}
	for i := 0; i < 100_000; i++ {
		if err := tm.Begin().Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	if id, n := tm.nextID.Load(), tm.chunks(); id != 0 || n != 0 {
		t.Fatalf("100000 read-only transactions moved the id clock to %d and allocated %d chunks", id, n)
	}
	const edge = 1 << txnChunkBits
	tm.nextID.Store(edge - 3)
	var txs []*Txn
	for i := 0; i < 4; i++ { // ids edge-2 .. edge+1
		tx := tm.Begin()
		if _, err := tx.Insert(h, rowTuple(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	if tm.chunks() != 0 {
		t.Fatal("an undecided writer allocated a chunk")
	}
	for i, decide := range []func(*Txn) error{(*Txn).Commit, (*Txn).Commit, (*Txn).Rollback} {
		if err := decide(txs[i]); err != nil {
			t.Fatal(err)
		}
	}
	defer txs[3].Rollback()
	rd := tm.Begin()
	defer rd.Rollback()
	wantKeys(t, rd.View(h), 0, 1) // edge-2 and edge-1: chunk 0's last slot and chunk 1's first
	wantKeys(t, txs[3].View(h), 3)
	if !tm.isAborted(edge) || tm.isAborted(edge+1) {
		t.Fatal("abort mark across the chunk edge wrong")
	}
	highest := tm.nextID.Load()
	if got, bound := tm.chunks()*(8<<txnChunkBits), 8*int((highest+edge-1)/edge*edge); got != 2*8*edge || got > bound {
		t.Fatalf("table is %d bytes for highest id %d, want %d (bound %d)", got, highest, 2*8*edge, bound)
	}
	if tm.Active() != 2 {
		t.Fatalf("Active() = %d, want 2", tm.Active())
	}
}

// TestViewBeforeFirstWrite: ids are drawn at the first write, so a
// view opened while the transaction was still read-only must pick the
// id up — it sees the transaction's own insert and not the row it
// deleted.
func TestViewBeforeFirstWrite(t *testing.T) {
	db, h := newTxnDB(t)
	rid, err := insertRow(h, rowTuple(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Txns().Begin()
	defer tx.Rollback()
	view := tx.View(h)
	wantKeys(t, view, 1)
	if tx.ID() != 0 {
		t.Fatalf("a read drew id %d", tx.ID())
	}
	if _, err := tx.Insert(h, rowTuple(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(h, rid); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, view, 2)
	other := db.Txns().Begin()
	defer other.Rollback()
	wantKeys(t, other.View(h), 1)
}

// TestSnapshotStress is the latch-free commit table under real
// concurrency: writers move amounts between rows and commit or roll
// back, while readers scan under their own snapshots. Every snapshot
// must see the invariant sum, and see it again (repeatable read) —
// once record by record, once through the executor's page-at-a-time
// path — and no transaction may be left open. The rows are seeded by
// a transaction, as every admsqld row is: claiming a PLAIN record
// moves it within its page, which the record-by-record Scan (not the
// page path) can see twice or miss.
func TestSnapshotStress(t *testing.T) {
	for _, readers := range []int{1, 4} {
		t.Run(fmt.Sprintf("readers=%d", readers), func(t *testing.T) {
			db, h := newTxnDB(t)
			const rows, amount, writers, moves = 8, 100, 4, 60
			seed := db.Txns().Begin()
			for k := int64(0); k < rows; k++ {
				if _, err := seed.Insert(h, Tuple{IntValue(k), IntValue(amount)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := seed.Commit(); err != nil {
				t.Fatal(err)
			}
			var wg, writing sync.WaitGroup
			var stop atomic.Bool
			for w := 0; w < writers; w++ {
				wg.Add(1)
				writing.Add(1)
				go func(w int) {
					defer wg.Done()
					defer writing.Done()
					for i := 0; i < moves; i++ {
						tx := db.Txns().Begin()
						from, to := int64((w+i)%rows), int64((w+3*i+1)%rows)
						at := map[int64]RID{}
						have := map[int64]int64{}
						if err := tx.View(h).Scan(func(rid RID, tu Tuple) bool {
							at[tu[0].Int], have[tu[0].Int] = rid, tu[1].Int
							return true
						}); err != nil {
							t.Error(err)
						}
						var err error
						if len(at) != rows {
							t.Errorf("writer snapshot saw %d rows, want %d", len(at), rows)
						} else if from != to {
							if _, err = tx.Update(h, at[from], Tuple{IntValue(from), IntValue(have[from] - 1)}); err == nil {
								_, err = tx.Update(h, at[to], Tuple{IntValue(to), IntValue(have[to] + 1)})
							}
						}
						// A conflict loser, and every third winner, rolls
						// back — half-done transfers included.
						if err != nil || i%3 == 0 {
							if !errors.Is(err, ErrWriteConflict) && err != nil {
								t.Error(err)
							}
							err = tx.Rollback()
						} else {
							err = tx.Commit()
						}
						if err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			sum := func(tx *Txn, byPage bool) (n, total int64) {
				view := tx.View(h)
				if !byPage {
					if err := view.Scan(func(_ RID, tu Tuple) bool {
						n, total = n+1, total+tu[1].Int
						return true
					}); err != nil {
						t.Error(err)
					}
					return n, total
				}
				for _, id := range view.PageIDs() {
					tuples, err := view.PageTuplesInto(id, nil)
					if err != nil {
						t.Error(err)
					}
					for _, tu := range tuples {
						n, total = n+1, total+tu[1].Int
					}
				}
				return n, total
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						tx := db.Txns().Begin()
						for pass := 0; pass < 2; pass++ {
							if n, total := sum(tx, pass == 1); n != rows || total != rows*amount {
								t.Errorf("snapshot %d pass %d saw %d rows summing to %d, want %d / %d",
									tx.Snapshot().High, pass, n, total, rows, rows*amount)
								stop.Store(true)
							}
						}
						if err := tx.Commit(); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			writing.Wait()
			stop.Store(true)
			wg.Wait()
			if got := db.Txns().Active(); got != 0 {
				t.Fatalf("Active() = %d after every transaction finished", got)
			}
			st := db.Txns().Stats()
			if st.Batched == 0 || st.Aborts == 0 {
				t.Fatalf("stress exercised no commits or no aborts: %+v", st)
			}
		})
	}
}

// TestGroupCommitStress drives 16 concurrent sessions through the
// group-commit path under the race detector: every session loops
// begin-insert-commit with interleaved snapshot reads; afterwards all
// rows must be visible and the batching counters consistent.
func TestGroupCommitStress(t *testing.T) {
	db, h := newTxnDB(t)
	const sessions = 16
	const txnsPer = 25
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < txnsPer; i++ {
				tx := db.Txns().Begin()
				if _, err := tx.Insert(h, rowTuple(int64(s*txnsPer+i), 0)); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
				// Interleaved snapshot read: own row must be visible.
				rd := db.Txns().Begin()
				keys := keysOf(t, rd.View(h))
				if !keys[int64(s*txnsPer+i)] {
					errs <- fmt.Errorf("session %d: committed row %d invisible", s, s*txnsPer+i)
					return
				}
				_ = rd.Commit()
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tx := db.Txns().Begin()
	defer tx.Rollback()
	keys := keysOf(t, tx.View(h))
	if len(keys) != sessions*txnsPer {
		t.Fatalf("visible rows = %d, want %d", len(keys), sessions*txnsPer)
	}
	st := db.Txns().Stats()
	if st.Batched != sessions*txnsPer {
		t.Fatalf("stats.Batched = %d, want %d", st.Batched, sessions*txnsPer)
	}
	if st.Groups == 0 || st.Groups > st.Batched {
		t.Fatalf("stats.Groups = %d out of range (batched %d)", st.Groups, st.Batched)
	}
	t.Logf("group commit: %d txns in %d groups (fan-in %.1f)",
		st.Batched, st.Groups, float64(st.Batched)/float64(st.Groups))
}

// TestGroupCommitConflictStress has all sessions fight over a small
// set of rows: every row claim must be won by exactly one live
// transaction at a time, and the final state must reflect a serial
// order (each row still has exactly one visible version).
func TestGroupCommitConflictStress(t *testing.T) {
	db, h := newTxnDB(t)
	const rows = 4
	rids := make([]RID, rows)
	for i := range rids {
		rid, err := insertRow(h, rowTuple(int64(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	const sessions = 8
	const attempts = 20
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				tx := db.Txns().Begin()
				target := (s + i) % rows
				// Find the row's currently visible version by key.
				var cur RID
				found := false
				err := tx.View(h).Scan(func(rid RID, tu Tuple) bool {
					if tu[0].Int == int64(target) {
						cur, found = rid, true
						return false
					}
					return true
				})
				if err != nil {
					errs <- err
					return
				}
				if !found {
					_ = tx.Rollback()
					errs <- fmt.Errorf("row %d has no visible version", target)
					return
				}
				_, err = tx.Update(h, cur, rowTuple(int64(target), s*attempts+i+1))
				if errors.Is(err, ErrWriteConflict) {
					if err := tx.Rollback(); err != nil {
						errs <- err
						return
					}
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tx := db.Txns().Begin()
	defer tx.Rollback()
	perKey := map[int64]int{}
	err := tx.View(h).Scan(func(_ RID, tu Tuple) bool {
		perKey[tu[0].Int]++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(perKey) != rows {
		t.Fatalf("visible keys = %v, want %d keys", perKey, rows)
	}
	for k, n := range perKey {
		if n != 1 {
			t.Fatalf("key %d has %d visible versions, want 1", k, n)
		}
	}
	st := db.Txns().Stats()
	t.Logf("conflict stress: %d commits in %d groups, %d aborts",
		st.Batched, st.Groups, st.Aborts)
}

// TestPageRowsReadOneImage: PageRowsInto reads tuples and RIDs from
// one image of the page, so under concurrent claims (committed and
// rolled back, under the race detector) every record appears exactly
// once and, once the claims are done, every RID leads to the row it
// came with.
func TestPageRowsReadOneImage(t *testing.T) {
	db, h := newTxnDB(t)
	const n = 40
	rids := make([]RID, n)
	seed := db.Txns().Begin()
	for k := range rids {
		var err error
		if rids[k], err = seed.Insert(h, rowTuple(int64(k), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	if h.Pages() != 1 {
		t.Fatalf("fixture spans %d pages, want 1", h.Pages())
	}
	page := rids[0].Page
	old := db.Txns().Begin() // sees every record, whatever is claimed below
	defer old.Rollback()
	claim := func(rid RID, decide func(*Txn) error) {
		tx := db.Txns().Begin()
		if err := tx.Delete(h, rid); err != nil {
			t.Error(err)
		}
		if err := decide(tx); err != nil {
			t.Error(err)
		}
	}

	// once checks one page read: n rows, each key once, and (when no
	// claim can be in flight) every RID leading to the row it came with.
	once := func(quiescent bool) {
		ts, got, err := old.View(h).PageRowsInto(page, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		keys := map[int64]bool{}
		for i, tu := range ts {
			if keys[tu[0].Int] {
				t.Errorf("key %d read twice in one page read", tu[0].Int)
			}
			keys[tu[0].Int] = true
			if quiescent {
				if at, err := h.Blind().Get(got[i]); err != nil || at[0].Int != tu[0].Int {
					t.Errorf("RID %s came with key %d but holds %v (%v)", got[i], tu[0].Int, at, err)
				}
			}
		}
		if len(keys) != n {
			t.Errorf("one page read returned %d distinct keys, want %d", len(keys), n)
		}
	}
	once(true)
	var claimers, readers sync.WaitGroup
	var done atomic.Bool
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				once(false)
			}
		}()
	}
	for w := 0; w < 3; w++ {
		claimers.Add(1)
		go func(w int) {
			defer claimers.Done()
			for k := 1 + w; k < n; k += 3 {
				decide := (*Txn).Commit
				if k%2 == 0 {
					decide = (*Txn).Rollback
				}
				claim(rids[k], decide)
			}
		}(w)
	}
	claimers.Wait()
	done.Store(true)
	readers.Wait()
	once(true)
}

// TestIndexLookupSkipsDeadVersionsForFree: index entries cover every
// version, so a lookup of a row updated ten times meets ten dead
// versions before (or after) its live one. Get judges each from its
// version header and returns a preallocated error without decoding
// it, so the lookup allocates exactly what a lookup of a never-updated
// row does: the one live tuple.
func TestIndexLookupSkipsDeadVersionsForFree(t *testing.T) {
	db, h := newTxnDB(t)
	idx := NewBTree("k")
	write := func(fn func(tx *Txn) error) {
		t.Helper()
		tx := db.Txns().Begin()
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var rid RID
	write(func(tx *Txn) error {
		for k := int64(1); k <= 2; k++ {
			r, err := tx.Insert(h, rowTuple(k, 0))
			if err != nil {
				return err
			}
			idx.Insert(IntValue(k), r)
			rid = r
		}
		return nil
	})
	for rev := 1; rev <= 10; rev++ {
		write(func(tx *Txn) error {
			nrid, err := tx.Update(h, rid, rowTuple(2, rev))
			idx.Insert(IntValue(2), nrid)
			rid = nrid
			return err
		})
	}
	tx := db.Txns().Begin()
	defer tx.Rollback()
	view := tx.View(h)
	lookup := func(k int64) float64 {
		rids := idx.Search(IntValue(k))
		return testing.AllocsPerRun(100, func() {
			live := 0
			for _, r := range rids {
				row, err := view.Get(r)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if row[0].Int != k {
					t.Fatalf("key %d read row %v", k, row)
				}
				live++
			}
			if live != 1 {
				t.Fatalf("key %d: %d live versions through %d entries, want 1", k, live, len(rids))
			}
		})
	}
	if n := len(idx.Search(IntValue(2))); n != 11 {
		t.Fatalf("key 2 has %d index entries, want 11", n)
	}
	if fresh, churned := lookup(1), lookup(2); churned != fresh {
		t.Fatalf("lookup through 10 dead versions allocates %.0f, a fresh row %.0f", churned, fresh)
	}
}

// TestPageVerdictSummary is the white-box case of the page verdict:
// the summary the decode pass records (allLive, the distinct creators
// and their overflow mark) and decodedPage.admitsAll on either side of
// each decision. The differential check over generated pages is
// TestPageVerdictMatchesPerRowFilter.
func TestPageVerdictSummary(t *testing.T) {
	db, h := newTxnDB(t)
	tm := db.Txns()
	image := func(h *HeapFile) *decodedPage {
		t.Helper()
		id := h.PageIDs()[0]
		p, err := h.bm.GetPage(id)
		if err != nil {
			t.Fatal(err)
		}
		defer h.bm.Unpin(id)
		d, err := p.decoded()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	insert := func(tx *Txn, h *HeapFile, k int64) RID {
		t.Helper()
		rid, err := tx.Insert(h, rowTuple(k, 0))
		if err != nil {
			t.Fatal(err)
		}
		return rid
	}
	commit := func(tx *Txn) {
		t.Helper()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	admits := func(h *HeapFile, tx *Txn, want bool) {
		t.Helper()
		if got := image(h).admitsAll(tm, tx.Snapshot()); got != want {
			t.Fatalf("admitsAll(%+v) = %v, want %v", tx.Snapshot(), got, want)
		}
	}

	// k-1 committed creators and the reader itself fill the array, in
	// slot order.
	k := len(decodedPage{}.xmins)
	var ids []uint64
	for i := 0; i < k-1; i++ {
		w := tm.Begin()
		insert(w, h, int64(i))
		insert(w, h, int64(10+i))
		ids = append(ids, w.ID())
		commit(w)
	}
	before := tm.Begin() // sees the committed creators, not the reader
	self := tm.Begin()
	victim := insert(self, h, 100)
	ids = append(ids, self.ID())
	if d := image(h); !d.allLive || int(d.nxmin) != k || !slices.Equal(d.xmins[:], ids) {
		t.Fatalf("summary = allLive %v, %d creators %v; want true, %d %v", d.allLive, d.nxmin, d.xmins, k, ids)
	}
	admits(h, self, true)    // own insert: Self
	admits(h, before, false) // the last creator is in flight
	commit(self)
	after := tm.Begin()
	admits(h, after, true)
	admits(h, before, false) // a verdict never moves

	// A committed claim: no longer all live, so no snapshot admits the
	// page whole, though the claim is outside after's snapshot.
	claim := tm.Begin()
	if err := claim.Delete(h, victim); err != nil {
		t.Fatal(err)
	}
	commit(claim)
	if image(h).allLive {
		t.Fatal("summary reads allLive over a claimed version")
	}
	admits(h, after, false)

	// k+1 committed creators overflow the array: judged per row.
	over, err := db.CreateFile("over")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= k; i++ {
		w := tm.Begin()
		insert(w, over, int64(i))
		commit(w)
	}
	if d := image(over); int(d.nxmin) <= k {
		t.Fatalf("%d creators read as %d: overflow not marked", k+1, d.nxmin)
	}
	admits(over, tm.Begin(), false)
	if got := keysOf(t, tm.Begin().View(over)); len(got) != k+1 {
		t.Fatalf("per-row read of the overflowed page = %v, want %d keys", got, k+1)
	}
}
