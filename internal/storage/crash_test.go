// Crash-recovery tests: a deterministic workload is run against a DB
// over in-memory disks, the disks are snapshotted and truncated at
// every WAL record boundary (and at mid-record byte offsets), and the
// engine is reopened from the surviving bytes. Every row write is a
// transaction of its own, committed, and the oracle is the workload's
// own shadow model of the committed state: wherever the log is cut,
// the rows a fresh snapshot of the recovered DB sees must be
// byte-identical to the model after the last op whose commit survived
// — an op cut before its commit record is wholly absent.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// wlOp is one step of the crash workload.
type wlOp struct {
	kind string // create | insert | delete | update | index | meta | checkpoint
	key  int64
	tup  Tuple
}

func wlTuple(key int64, rev int) Tuple {
	// ~200-byte payload so the workload spans several pages; rev makes
	// updated versions distinguishable byte-for-byte.
	pay := strings.Repeat(fmt.Sprintf("k%drev%d.", key, rev), 20)
	return Tuple{IntValue(key), StringValue(pay)}
}

// crashWorkload is the fixed op sequence every crash test replays.
func crashWorkload() []wlOp {
	ops := []wlOp{{kind: "create"}}
	for i := int64(0); i < 30; i++ {
		ops = append(ops, wlOp{kind: "insert", key: i, tup: wlTuple(i, 0)})
	}
	ops = append(ops, wlOp{kind: "checkpoint"})
	for _, k := range []int64{2, 11, 17} {
		ops = append(ops, wlOp{kind: "delete", key: k})
	}
	for _, k := range []int64{5, 13, 28} {
		ops = append(ops, wlOp{kind: "update", key: k, tup: wlTuple(k, 1)})
	}
	ops = append(ops, wlOp{kind: "index"}, wlOp{kind: "meta"})
	for i := int64(30); i < 40; i++ {
		ops = append(ops, wlOp{kind: "insert", key: i, tup: wlTuple(i, 0)})
	}
	ops = append(ops, wlOp{kind: "checkpoint"})
	for i := int64(40); i < 43; i++ {
		ops = append(ops, wlOp{kind: "insert", key: i, tup: wlTuple(i, 0)})
	}
	return ops
}

// wlState is the shadow model: acknowledged rows (encoded) keyed by
// column 0, plus the RIDs the live run needs to address them.
type wlState struct {
	rows map[int64][]byte
	rids map[int64]RID
}

func newWLState() *wlState {
	return &wlState{rows: map[int64][]byte{}, rids: map[int64]RID{}}
}

func (s *wlState) clone() *wlState {
	c := newWLState()
	for k, v := range s.rows {
		c.rows[k] = v
	}
	for k, v := range s.rids {
		c.rids[k] = v
	}
	return c
}

// commitOne runs fn in a transaction of its own and commits it.
func commitOne(db *DB, fn func(tx *Txn) error) error {
	tx := db.Txns().Begin()
	if err := fn(tx); err != nil {
		return errors.Join(err, tx.Rollback())
	}
	return tx.Commit()
}

// insertKeys commits the workload rows of keys [from, to) into h in one
// transaction.
func insertKeys(t *testing.T, db *DB, h *HeapFile, from, to int64) {
	t.Helper()
	if err := commitOne(db, func(tx *Txn) error {
		for i := from; i < to; i++ {
			if _, err := tx.Insert(h, wlTuple(i, 0)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// applyOp runs one op against db, updating the model only on success.
func applyOp(db *DB, op wlOp, s *wlState) error {
	h, _ := db.File("t")
	switch op.kind {
	case "create":
		_, err := db.CreateFile("t")
		return err
	case "insert", "update":
		var rid RID
		err := commitOne(db, func(tx *Txn) (err error) {
			if op.kind == "insert" {
				rid, err = tx.Insert(h, op.tup)
			} else {
				rid, err = tx.Update(h, s.rids[op.key], op.tup)
			}
			return err
		})
		if err != nil {
			return err
		}
		s.rows[op.key] = EncodeTuple(op.tup)
		s.rids[op.key] = rid
		return nil
	case "delete":
		if err := commitOne(db, func(tx *Txn) error { return tx.Delete(h, s.rids[op.key]) }); err != nil {
			return err
		}
		delete(s.rows, op.key)
		delete(s.rids, op.key)
		return nil
	case "index":
		return db.LogIndex(IndexDef{Name: "t_k0", File: "t", Col: 0})
	case "meta":
		return db.SetMeta("schema", "t(k0 int, pay string)")
	case "checkpoint":
		return db.Checkpoint()
	default:
		return fmt.Errorf("unknown op %q", op.kind)
	}
}

// runWorkload executes ops in order, recording the model snapshot and
// WAL tail after each op. It stops at the first error (the crashed
// regime) and reports how many ops were fully acknowledged.
func runWorkload(db *DB, ops []wlOp) (states []*wlState, tails []int64, acked int, err error) {
	s := newWLState()
	for _, op := range ops {
		if e := applyOp(db, op, s); e != nil {
			return states, tails, acked, e
		}
		states = append(states, s.clone())
		tails = append(tails, db.WAL().Tail())
		acked++
	}
	return states, tails, acked, nil
}

// runWorkloadSnapshotting additionally snapshots the data disk after
// each op: a crash at WAL offset t must be replayed against the data
// bytes of t's own era — pairing an early WAL cut with a later
// checkpoint's frames is a state no real crash can produce.
func runWorkloadSnapshotting(db *DB, ops []wlOp, dataDisk *MemDisk) (states []*wlState, tails []int64, dataSnaps [][]byte, err error) {
	s := newWLState()
	for _, op := range ops {
		if e := applyOp(db, op, s); e != nil {
			return states, tails, dataSnaps, e
		}
		states = append(states, s.clone())
		tails = append(tails, db.WAL().Tail())
		dataSnaps = append(dataSnaps, dataDisk.Bytes())
	}
	return states, tails, dataSnaps, nil
}

// scanState reads the rows a fresh snapshot of the recovered table
// sees into the model's representation.
func scanState(t *testing.T, db *DB) map[int64][]byte {
	t.Helper()
	h, ok := db.File("t")
	if !ok {
		return map[int64][]byte{}
	}
	out := map[int64][]byte{}
	snap := db.Txns().Begin()
	defer snap.Rollback()
	err := snap.View(h).Scan(func(rid RID, tu Tuple) bool {
		k := tu[0].Int
		if _, dup := out[k]; dup {
			t.Fatalf("key %d recovered twice", k)
		}
		out[k] = EncodeTuple(tu)
		return true
	})
	if err != nil {
		t.Fatalf("scan recovered: %v", err)
	}
	return out
}

func sameState(a, b map[int64][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(b[k], v) {
			return false
		}
	}
	return true
}

// verifyIndex checks the recovered B-tree (if its definition was
// durable): its entries cover every version, and the ones a fresh
// snapshot sees are exactly the recovered rows, byte-identically.
func verifyIndex(t *testing.T, db *DB, rows map[int64][]byte) {
	t.Helper()
	tree, ok := db.Index("t_k0")
	if !ok {
		return
	}
	h, _ := db.File("t")
	snap := db.Txns().Begin()
	defer snap.Rollback()
	view := snap.View(h)
	seen := map[int64]bool{}
	tree.Range(Value{Kind: KindNull}, Value{Kind: KindString, Str: "\xff"}, func(key Value, rid RID) bool {
		if _, err := h.Blind().Get(rid); err != nil {
			t.Fatalf("index rid %v: %v", rid, err)
		}
		tu, err := view.Get(rid)
		if errors.Is(err, ErrNotFound) {
			return true // a version outside the snapshot
		}
		if err != nil {
			t.Fatalf("index rid %v: %v", rid, err)
		}
		want, ok := rows[tu[0].Int]
		if !ok || seen[tu[0].Int] {
			t.Fatalf("index enumerates key %d not in recovered heap, or twice", tu[0].Int)
		}
		if !bytes.Equal(want, EncodeTuple(tu)) {
			t.Fatalf("index row for key %d differs from heap scan", tu[0].Int)
		}
		seen[tu[0].Int] = true
		return true
	})
	if len(seen) != len(rows) {
		t.Fatalf("index enumerates %d rows, heap has %d", len(seen), len(rows))
	}
}

func reopen(t *testing.T, walBytes, dataBytes []byte) *DB {
	t.Helper()
	db, err := Open(NewMemDiskFrom(walBytes), NewMemDiskFrom(dataBytes), DBOptions{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	return db
}

// ---------------------------------------------------------------------------
// WAL-level framing tests.

func TestWALAppendScanRoundtrip(t *testing.T) {
	disk := NewMemDisk()
	w, recs, err := OpenWAL(disk, SyncEveryRecord)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	payloads := [][]byte{
		encodeCreateFile("t"),
		encodeAllocPage("t", 7),
		encodeSlotRecord(7, 0, []byte("hello")),
		encodeDelete(7, 0),
		encodeMeta("k", "v"),
	}
	types := []RecordType{RecCreateFile, RecAllocPage, RecInsert, RecDelete, RecMeta}
	for i, p := range payloads {
		lsn, err := w.Append(types[i], p)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d: lsn %d", i, lsn)
		}
	}
	_, recs2, err := OpenWAL(NewMemDiskFrom(disk.Bytes()), SyncEveryRecord)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != len(payloads) {
		t.Fatalf("reopen scanned %d records, want %d", len(recs2), len(payloads))
	}
	for i, r := range recs2 {
		if r.LSN != uint64(i+1) || r.Type != types[i] || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
}

// TestWALTornTailEveryByte truncates the log at every byte offset and
// asserts the scan recovers exactly the records wholly inside the
// surviving prefix — torn tails end replay, they are never errors.
func TestWALTornTailEveryByte(t *testing.T) {
	disk := NewMemDisk()
	w, _, err := OpenWAL(disk, SyncEveryRecord)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := w.Append(RecMeta, encodeMeta(fmt.Sprintf("key%d", i), strings.Repeat("v", i*3))); err != nil {
			t.Fatal(err)
		}
	}
	full := disk.Bytes()
	_, golden, err := OpenWAL(NewMemDiskFrom(full), SyncEveryRecord)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(full); cut >= walHeader; cut-- {
		w2, recs, err := OpenWAL(NewMemDiskFrom(full[:cut]), SyncEveryRecord)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := 0
		for _, r := range golden {
			if r.End <= int64(cut) {
				want++
			}
		}
		if len(recs) != want {
			t.Fatalf("cut %d: scanned %d records, want %d", cut, len(recs), want)
		}
		// The tail must sit at the last whole record so new appends
		// overwrite torn garbage rather than chaining onto it.
		if want > 0 && w2.Tail() != golden[want-1].End {
			t.Fatalf("cut %d: tail %d, want %d", cut, w2.Tail(), golden[want-1].End)
		}
	}
}

// TestWALAppendAfterTornTail reopens a torn log and appends: the new
// record must land at the durable tail and scan back cleanly.
func TestWALAppendAfterTornTail(t *testing.T) {
	disk := NewMemDisk()
	w, _, err := OpenWAL(disk, SyncEveryRecord)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(RecMeta, encodeMeta("k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	full := disk.Bytes()
	torn := full[:len(full)-5] // tear the last record mid-frame
	w2, recs, err := OpenWAL(NewMemDiskFrom(torn), SyncEveryRecord)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn reopen scanned %d records, want 2", len(recs))
	}
	lsn, err := w2.Append(RecMeta, encodeMeta("post", "crash"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("post-crash append lsn %d, want 3", lsn)
	}
	_, recs3, err := OpenWAL(NewMemDiskFrom(torn), SyncEveryRecord) // torn shares w2's backing? no: fresh copy
	if err != nil {
		t.Fatal(err)
	}
	_ = recs3
	// Scan the disk w2 actually wrote to.
	_, recs4, err := OpenWAL(NewMemDiskFrom(snapshotOf(t, w2)), SyncEveryRecord)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs4) != 3 || recs4[2].Type != RecMeta || recs4[2].LSN != 3 {
		t.Fatalf("after post-crash append: %d records", len(recs4))
	}
}

func snapshotOf(t *testing.T, w *WAL) []byte {
	t.Helper()
	md, ok := w.disk.(*MemDisk)
	if !ok {
		t.Fatal("test WAL not on MemDisk")
	}
	return md.Bytes()
}

// TestWALCorruptMiddleStopsScan flips a payload byte in the middle of
// the log: the scan must keep everything before the corrupt record and
// surrender everything after (no resynchronisation on garbage).
func TestWALCorruptMiddleStopsScan(t *testing.T) {
	disk := NewMemDisk()
	w, _, err := OpenWAL(disk, SyncEveryRecord)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := w.Append(RecMeta, encodeMeta(fmt.Sprintf("key%d", i), "value")); err != nil {
			t.Fatal(err)
		}
	}
	full := disk.Bytes()
	_, golden, err := OpenWAL(NewMemDiskFrom(full), SyncEveryRecord)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), full...)
	corrupt[golden[3].Off+recHeaderSize] ^= 0xFF // payload byte of record 3
	_, recs, err := OpenWAL(NewMemDiskFrom(corrupt), SyncEveryRecord)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("scan past corruption returned %d records, want 3", len(recs))
	}
}

// ---------------------------------------------------------------------------
// Engine-level recovery.

// TestRecoverCleanLog reopens after the full workload and requires an
// exact byte-identical reconstruction: rows, index, metadata, counts.
func TestRecoverCleanLog(t *testing.T) {
	walDisk, dataDisk := NewMemDisk(), NewMemDisk()
	db, err := Open(walDisk, dataDisk, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	states, _, _, err := runWorkload(db, crashWorkload())
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	want := states[len(states)-1]

	db2 := reopen(t, walDisk.Bytes(), dataDisk.Bytes())
	got := scanState(t, db2)
	if !sameState(got, want.rows) {
		t.Fatalf("recovered %d rows, want %d (or bytes differ)", len(got), len(want.rows))
	}
	verifyIndex(t, db2, got)
	if v, ok := db2.Meta("schema"); !ok || v != "t(k0 int, pay string)" {
		t.Fatalf("meta not recovered: %q %v", v, ok)
	}
	h, _ := db2.File("t")
	if all, err := h.Blind().All(); err != nil || h.Count() != len(all) {
		t.Fatalf("recovered Count() = %d, a version-blind scan reads %d (%v)", h.Count(), len(all), err)
	}
	st := db2.Stats()
	if !st.Recovery.CheckpointFound {
		t.Fatal("recovery missed the checkpoint")
	}
	if st.Recovery.PagesQuarantined != 0 {
		t.Fatalf("clean recovery quarantined %d pages", st.Recovery.PagesQuarantined)
	}

	// The recovered DB must keep working: another workload step.
	if err := commitOne(db2, func(tx *Txn) error { _, err := tx.Insert(h, wlTuple(99, 0)); return err }); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
}

// TestCrashAtEveryRecordBoundary truncates the WAL at every record
// boundary. The recovered committed state must equal the shadow model
// after the last op wholly inside the cut: an op cut between its
// records (before its commit record) is all-or-nothing. This is the
// acceptance criterion: byte-identical heap and index scans at every
// WAL barrier.
func TestCrashAtEveryRecordBoundary(t *testing.T) {
	walDisk, dataDisk := NewMemDisk(), NewMemDisk()
	db, err := Open(walDisk, dataDisk, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ops := crashWorkload()
	states, tails, dataSnaps, err := runWorkloadSnapshotting(db, ops, dataDisk)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	walBytes := walDisk.Bytes()
	_, golden, err := OpenWAL(NewMemDiskFrom(walBytes), SyncEveryRecord)
	if err != nil {
		t.Fatal(err)
	}

	// ackedAt returns the last op fully durable at cut, or -1.
	ackedAt := func(cut int64) int {
		i := -1
		for j, tail := range tails {
			if tail <= cut {
				i = j
			}
		}
		return i
	}

	cuts := []int64{walHeader}
	for _, r := range golden {
		cuts = append(cuts, r.End)
	}
	for _, cut := range cuts {
		dataBytes := []byte(nil)
		if i := ackedAt(cut); i >= 0 {
			dataBytes = dataSnaps[i]
		}
		db2 := reopen(t, walBytes[:cut], dataBytes)
		got := scanState(t, db2)
		i := ackedAt(cut)
		acked := newWLState()
		if i >= 0 {
			acked = states[i]
		}
		if !sameState(got, acked.rows) {
			t.Fatalf("cut %d (after op %d): recovered %d rows, want %d (or bytes differ)",
				cut, i, len(got), len(acked.rows))
		}
		verifyIndex(t, db2, got)
	}
}

// TestRecoveryDeterministic recovers twice from the same crash image
// and requires identical results — replay has no hidden state.
func TestRecoveryDeterministic(t *testing.T) {
	walDisk, dataDisk := NewMemDisk(), NewMemDisk()
	db, err := Open(walDisk, dataDisk, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := runWorkload(db, crashWorkload()); err != nil {
		t.Fatal(err)
	}
	walBytes, dataBytes := walDisk.Bytes(), dataDisk.Bytes()
	cut := int64(len(walBytes)) * 2 / 3 // arbitrary torn point
	a := reopen(t, walBytes[:cut], dataBytes)
	b := reopen(t, walBytes[:cut], dataBytes)
	if !sameState(scanState(t, a), scanState(t, b)) {
		t.Fatal("two recoveries of the same image differ")
	}
	if a.Stats().Recovery != b.Stats().Recovery {
		t.Fatalf("recovery stats differ: %+v vs %+v", a.Stats().Recovery, b.Stats().Recovery)
	}
}

// ---------------------------------------------------------------------------
// Checksum quarantine.

// TestRecoveryQuarantinesCorruptPage flips a byte inside a
// checkpointed frame: recovery must quarantine that page, report it,
// keep serving every other page, and surface the quarantine on direct
// access — never silently serve corrupt data.
func TestRecoveryQuarantinesCorruptPage(t *testing.T) {
	walDisk, dataDisk := NewMemDisk(), NewMemDisk()
	db, err := Open(walDisk, dataDisk, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	states, _, _, err := runWorkload(db, crashWorkload())
	if err != nil {
		t.Fatal(err)
	}
	want := states[len(states)-1]
	h, _ := db.File("t")
	victim := h.PageIDs()[0]

	data := dataDisk.Bytes()
	data[frameOffset(victim)+100] ^= 0xFF

	var reported []PageID
	db2, err := Open(NewMemDiskFrom(walDisk.Bytes()), NewMemDiskFrom(data), DBOptions{})
	if err != nil {
		t.Fatalf("recovery with corrupt frame must not fail: %v", err)
	}
	db2.SetCorruptionHook(func(id PageID, err error) { reported = append(reported, id) })

	st := db2.Stats()
	if st.Recovery.PagesQuarantined != 1 {
		t.Fatalf("PagesQuarantined = %d, want 1", st.Recovery.PagesQuarantined)
	}
	if st.Buffer.QuarantinedPages != 1 || st.Buffer.ChecksumFailures != 1 {
		t.Fatalf("buffer stats: %+v", st.Buffer)
	}
	if _, err := db2.Buffer().GetPage(victim); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("GetPage(quarantined) = %v, want ErrQuarantined", err)
	}

	// A full scan must REPORT the quarantined page, not silently skip
	// it — that is the whole point of quarantine.
	h2, _ := db2.File("t")
	if err := h2.Blind().Scan(func(RID, Tuple) bool { return true }); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("scan over quarantined page = %v, want ErrQuarantined", err)
	}

	// Every page other than the victim must serve its rows
	// byte-identically; the redo suffix still applied to them.
	got := map[int64][]byte{}
	snap := db2.Txns().Begin()
	defer snap.Rollback()
	for _, id := range h2.PageIDs() {
		if id == victim {
			if _, err := h2.Blind().PageTuplesInto(id, nil); !errors.Is(err, ErrQuarantined) {
				t.Fatalf("victim page read = %v, want ErrQuarantined", err)
			}
			continue
		}
		tus, err := snap.View(h2).PageTuplesInto(id, nil)
		if err != nil {
			t.Fatalf("surviving page %d: %v", id, err)
		}
		for _, tu := range tus {
			got[tu[0].Int] = EncodeTuple(tu)
		}
	}
	for k, v := range got {
		if want.rows[k] == nil || !bytes.Equal(want.rows[k], v) {
			t.Fatalf("surviving key %d has phantom bytes", k)
		}
	}
	if len(got) >= len(want.rows) {
		t.Fatalf("expected to lose the victim page's rows (got %d of %d)", len(got), len(want.rows))
	}
	if len(reported) != 0 {
		// Hook was installed after recovery; fetch-time hits may add
		// later — recovery-time reports went to the pre-hook default.
		t.Fatalf("unexpected post-recovery corruption reports: %v", reported)
	}
}

// TestFetchTimeChecksum corrupts a frame's stored CRC after a
// checkpoint; the next checkpoint's scrub must catch the page whose
// memory no longer matches its frame, bump the counters, and
// quarantine the page so the next fetch fails instead of serving it.
func TestFetchTimeChecksum(t *testing.T) {
	walDisk, dataDisk := NewMemDisk(), NewMemDisk()
	db, err := Open(walDisk, dataDisk, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := commitOne(db, func(tx *Txn) error {
		for i := int64(0); i < 60; i++ { // several pages at ~200 B/row
			if _, err := tx.Insert(h, wlTuple(i, 0)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pages := h.PageIDs()
	if len(pages) < 3 {
		t.Fatalf("want >= 3 pages, got %d", len(pages))
	}
	victim := pages[0]

	// Corrupt the stored CRC of the victim's frame in place.
	var hooked []PageID
	db.SetCorruptionHook(func(id PageID, err error) { hooked = append(hooked, id) })
	trailer := frameOffset(victim) + PageSize + 8
	crc := make([]byte, 4)
	if _, err := dataDisk.ReadAt(crc, trailer); err != nil {
		t.Fatal(err)
	}
	crc[0] ^= 0xFF
	if _, err := dataDisk.WriteAt(crc, trailer); err != nil {
		t.Fatal(err)
	}

	// The second checkpoint flushes nothing and scrubs every page.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, id := range pages[1:] {
		if _, err := db.Buffer().GetPage(id); err != nil {
			t.Fatalf("healthy page %d: %v", id, err)
		}
		db.Buffer().Unpin(id)
	}
	_, err = db.Buffer().GetPage(victim)
	if !errors.Is(err, ErrChecksum) || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("fetch of corrupt page = %v, want ErrChecksum via quarantine", err)
	}
	if _, err := db.Buffer().GetPage(victim); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("second fetch = %v, want ErrQuarantined", err)
	}
	st := db.Stats().Buffer
	if st.ChecksumFailures != 1 || st.QuarantinedPages != 1 {
		t.Fatalf("buffer stats after fetch-time failure: %+v", st)
	}
	if len(hooked) != 1 || hooked[0] != victim {
		t.Fatalf("corruption hook saw %v, want [%d]", hooked, victim)
	}
}

// TestScrubSkipsDirtyPage: a page written since the last checkpoint
// is dirty and its frame stale — the WAL, not the frame, governs it —
// so a scrub must not flag it, before or after the flush that makes
// the frame current again.
func TestScrubSkipsDirtyPage(t *testing.T) {
	db, err := Open(NewMemDisk(), NewMemDisk(), DBOptions{Sync: SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	insertKeys(t, db, h, 0, 20)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertKeys(t, db, h, 20, 21) // lands on the last page: dirty, its frame stale
	last := h.PageIDs()[len(h.PageIDs())-1]
	if !db.isDirty(last) {
		t.Fatalf("page %d not dirty after a write", last)
	}
	check := func(when string) {
		t.Helper()
		if st := db.Stats().Buffer; st.ChecksumFailures != 0 || st.QuarantinedPages != 0 {
			t.Fatalf("%s: scrub flagged a healthy page: %+v", when, st)
		}
		if _, err := db.Buffer().GetPage(last); err != nil {
			t.Fatalf("%s: page %d: %v", when, last, err)
		}
		db.Buffer().Unpin(last)
	}
	db.scrub(nil) // every page, the dirty one included
	check("scrub of a dirty page")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("checkpoint")
}

// TestCheckpointAfterRecovery: the rows recovery replays past the
// last checkpoint must survive a checkpoint taken after the reopen and
// a second crash — the replayed pages are ahead of their frames, so
// that checkpoint has to flush them before it moves redoPos past
// their records.
func TestCheckpointAfterRecovery(t *testing.T) {
	walDisk, dataDisk := NewMemDisk(), NewMemDisk()
	db, err := Open(walDisk, dataDisk, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	insertKeys(t, db, h, 0, 5)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertKeys(t, db, h, 5, 10) // in the log only

	wal2, data2 := NewMemDiskFrom(walDisk.Bytes()), NewMemDiskFrom(dataDisk.Bytes())
	db2, err := Open(wal2, data2, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h2, _ := db2.File("t"); h2.Count() != 10 {
		t.Fatalf("first recovery: %d rows, want 10", h2.Count())
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if h3, _ := reopen(t, wal2.Bytes(), data2.Bytes()).File("t"); h3.Count() != 10 {
		t.Fatalf("recovery after a post-recovery checkpoint: %d rows, want 10", h3.Count())
	}
}

// TestCheckpointCutsReplay asserts checkpoints actually bound redo
// work: recovering right after a checkpoint replays only the suffix.
func TestCheckpointCutsReplay(t *testing.T) {
	walDisk, dataDisk := NewMemDisk(), NewMemDisk()
	db, err := Open(walDisk, dataDisk, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := commitOne(db, func(tx *Txn) error {
		for i := int64(0); i < 100; i++ {
			if _, err := tx.Insert(h, wlTuple(i, 0)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db2 := reopen(t, walDisk.Bytes(), dataDisk.Bytes())
	st := db2.Stats().Recovery
	if !st.CheckpointFound {
		t.Fatal("checkpoint not found")
	}
	// Only the checkpoint record itself sits past redoPos.
	if st.RecordsReplayed != 0 {
		t.Fatalf("replayed %d records after checkpoint, want 0", st.RecordsReplayed)
	}
	if got := scanState(t, db2); len(got) != 100 {
		t.Fatalf("recovered %d rows, want 100", len(got))
	}
}

// TestStickyFailure: a failed WAL append must poison the DB — no
// acknowledged write may exist only in memory.
func TestStickyFailure(t *testing.T) {
	walDisk, dataDisk := NewMemDisk(), NewMemDisk()
	db, err := Open(walDisk, dataDisk, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Txns().Begin()
	defer tx.Rollback()
	if _, err := tx.Insert(h, wlTuple(1, 0)); err != nil {
		t.Fatal(err)
	}
	// Fail the log by swapping in a broken disk under the WAL.
	db.wal.mu.Lock()
	db.wal.disk = brokenDisk{}
	db.wal.mu.Unlock()
	if _, err := tx.Insert(h, wlTuple(2, 0)); err == nil {
		t.Fatal("insert with broken WAL succeeded")
	}
	if err := db.Err(); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("Err() = %v, want ErrDBFailed", err)
	}
	if _, err := tx.Insert(h, wlTuple(3, 0)); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("post-failure insert = %v, want ErrDBFailed", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("post-failure checkpoint = %v, want ErrDBFailed", err)
	}
}

type brokenDisk struct{}

func (brokenDisk) ReadAt(p []byte, off int64) (int, error)  { return 0, errors.New("broken") }
func (brokenDisk) WriteAt(p []byte, off int64) (int, error) { return 0, errors.New("broken") }
func (brokenDisk) Sync() error                              { return errors.New("broken") }
func (brokenDisk) Size() (int64, error)                     { return 0, errors.New("broken") }
func (brokenDisk) Truncate(int64) error                     { return errors.New("broken") }
