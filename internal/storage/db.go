// DB is the durability spine: it owns the WAL, the checksummed page
// file, and the store/buffer pair, and threads them together so that
// every heap mutation is redo-logged before it is acknowledged and a
// reopen after any crash rebuilds byte-identical state.
//
// The protocol, end to end:
//
//   - Mutations log inside the page latch (Page.InsertWith, DeleteWith
//     and MutateWith call back into logInsert/logDelete/logUpdate), so
//     per-page WAL order equals apply order and redo in LSN order is
//     exact.
//   - Checkpoints are fuzzy: capture redoPos = WAL tail, flush every
//     dirty page (image + LSN + CRC32-C) to the page file, sync, then
//     append a checkpoint record carrying the metadata snapshot and
//     redoPos. The WAL is never truncated — recovery scans for the
//     last complete checkpoint, so a crash mid-checkpoint just falls
//     back to the previous one.
//   - Recovery loads checkpointed frames (quarantining any that fail
//     their checksum), replays the log from redoPos with the per-page
//     LSN guard, recounts heap files, and rebuilds B-trees by
//     backfilling from the recovered heaps.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// IndexDef describes a logged secondary index: recovery rebuilds the
// tree by scanning File and keying on column Col.
type IndexDef struct {
	Name string
	File string
	Col  int
}

// DBOptions configures Open.
type DBOptions struct {
	// BufferFrames sizes the buffer pool (default 1024).
	BufferFrames int
	// Policy is the replacement policy (default LRU).
	Policy Policy
	// Sync is the WAL barrier policy (default SyncEveryRecord).
	Sync SyncPolicy
}

// RecoveryStats describes what Open's redo pass did.
type RecoveryStats struct {
	CheckpointFound  bool
	RecordsScanned   int
	RecordsReplayed  int
	PagesLoaded      int
	PagesQuarantined int
	Files            int
	Indexes          int
	// TxnsCommitted / TxnsAborted count the transaction outcomes the
	// full-log scan rebuilt the commit table from. A version whose
	// creator is in neither set was in flight at the crash and stays
	// invisible forever.
	TxnsCommitted int
	TxnsAborted   int
}

// DBStats is the durability layer's counter snapshot.
type DBStats struct {
	WALAppends  uint64
	WALSyncs    uint64
	WALBytes    int64
	Checkpoints uint64
	Recovery    RecoveryStats
	Buffer      BufferStats
}

// ErrDBFailed wraps the sticky failure state: after a WAL append
// fails, the in-memory image may be ahead of the log, so the DB
// refuses further mutations rather than acknowledge writes recovery
// would not reproduce.
var ErrDBFailed = errors.New("storage: db failed")

// DB is a crash-safe storage instance over two DiskFiles (WAL + page
// file).
type DB struct {
	wal   *WAL
	pf    *PageFile
	store *Store
	bm    *BufferManager
	txns  *TxnManager

	mu        sync.Mutex
	files     map[string]*HeapFile
	fileOrder []string
	indexDefs []IndexDef
	indexes   map[string]*BTree
	meta      map[string]string
	failure   error

	dirtyMu sync.Mutex
	dirty   map[PageID]uint64 // page -> LSN of latest logged mutation

	checkpoints atomic.Uint64
	recovery    RecoveryStats

	// onCorruption, when set, is notified of every quarantined page
	// (recovery or fetch-time). Must not call back into the DB.
	onCorruption func(PageID, error)
}

// Open opens (or creates) a DB over the given WAL and page-file
// disks, running redo recovery if the log is non-empty.
func Open(walDisk, dataDisk DiskFile, opts DBOptions) (*DB, error) {
	if opts.BufferFrames <= 0 {
		opts.BufferFrames = 1024
	}
	if opts.Policy == nil {
		opts.Policy = NewLRU()
	}
	wal, recs, err := OpenWAL(walDisk, opts.Sync)
	if err != nil {
		return nil, err
	}
	pf, err := OpenPageFile(dataDisk)
	if err != nil {
		return nil, err
	}
	store := NewStore()
	db := &DB{
		wal:     wal,
		pf:      pf,
		store:   store,
		bm:      NewBufferManager(store, opts.BufferFrames, opts.Policy),
		files:   map[string]*HeapFile{},
		indexes: map[string]*BTree{},
		meta:    map[string]string{},
		dirty:   map[PageID]uint64{},
	}
	db.bm.SetVerifier(db.verifyPage)
	if err := db.recover(recs); err != nil {
		return nil, err
	}
	db.txns = newTxnManager(db)
	recoverCommitTable(db.txns, recs, &db.recovery)
	return db, nil
}

// Txns returns the DB's transaction manager: every record is written
// through one of its transactions.
func (db *DB) Txns() *TxnManager { return db.txns }

// recoverCommitTable refills tm's commit table, horizon and id clock
// from the FULL log scan (the WAL is never truncated, so every commit
// record since genesis is present regardless of the checkpoint's redo
// position); the clock also covers versioned record images, so the
// ids of undecided transactions are never reused. A Txn is done after
// its first Commit or Rollback, so an id has one decision record; were
// a log to hold two, the last settles the slot and the stats count
// records, not ids.
func recoverCommitTable(tm *TxnManager, recs []Record, stats *RecoveryStats) {
	var maxID, high uint64
	seen := func(id uint64) {
		if id > maxID {
			maxID = id
		}
	}
	for _, r := range recs {
		switch r.Type {
		case RecTxnCommit:
			if id, err := decodeTxn(r.Payload); err == nil {
				tm.decide(id, r.LSN)
				high = max(high, r.LSN)
				stats.TxnsCommitted++
				seen(id)
			}
		case RecTxnAbort:
			if id, err := decodeTxn(r.Payload); err == nil {
				tm.decide(id, txnAborted)
				stats.TxnsAborted++
				seen(id)
			}
		case RecInsert, RecUpdate:
			if _, _, rec, err := decodeSlotRecord(r.Payload); err == nil {
				if v, err := RecordVersion(rec); err == nil {
					seen(v.Xmin)
					seen(v.Xmax)
				}
			}
		}
	}
	tm.high.Store(high)
	tm.nextID.Store(maxID)
}

// Buffer returns the buffer manager.
func (db *DB) Buffer() *BufferManager { return db.bm }

// WAL returns the log (tests and benchmarks inspect barriers/tail).
func (db *DB) WAL() *WAL { return db.wal }

// SetCorruptionHook installs the quarantine observer (trace wiring).
func (db *DB) SetCorruptionHook(fn func(PageID, error)) {
	db.mu.Lock()
	db.onCorruption = fn
	db.mu.Unlock()
}

func (db *DB) reportCorruption(id PageID, err error) {
	db.mu.Lock()
	fn := db.onCorruption
	db.mu.Unlock()
	if fn != nil {
		fn(id, err)
	}
}

// Stats returns a counter snapshot.
func (db *DB) Stats() DBStats {
	appends, syncs, tail := db.wal.Stats()
	db.mu.Lock()
	rec := db.recovery
	db.mu.Unlock()
	return DBStats{
		WALAppends:  appends,
		WALSyncs:    syncs,
		WALBytes:    tail,
		Checkpoints: db.checkpoints.Load(),
		Recovery:    rec,
		Buffer:      db.bm.Stats(),
	}
}

// Err returns the sticky failure, if any.
func (db *DB) Err() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.failure
}

func (db *DB) fail(err error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.failLocked(err)
}

func (db *DB) failLocked(err error) error {
	if db.failure == nil {
		db.failure = fmt.Errorf("%w: %v", ErrDBFailed, err)
	}
	return db.failure
}

// ---------------------------------------------------------------------------
// Logged DDL + metadata.

// CreateFile registers (and logs) a heap file. Idempotent: an
// existing file of the same name is returned as-is.
func (db *DB) CreateFile(name string) (*HeapFile, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.failure != nil {
		return nil, db.failure
	}
	if h, ok := db.files[name]; ok {
		return h, nil
	}
	if _, err := db.wal.Append(RecCreateFile, encodeCreateFile(name)); err != nil {
		return nil, db.failLocked(err)
	}
	h := newHeapFile(name, db)
	db.files[name] = h
	db.fileOrder = append(db.fileOrder, name)
	return h, nil
}

// File returns a registered heap file.
func (db *DB) File(name string) (*HeapFile, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	h, ok := db.files[name]
	return h, ok
}

// Files returns registered file names in creation order.
func (db *DB) Files() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]string(nil), db.fileOrder...)
}

// LogIndex records a secondary-index definition so recovery can
// rebuild the tree by backfill. Idempotent by name. The tree itself
// lives with the caller (the catalog) — index contents are never
// logged record-by-record.
func (db *DB) LogIndex(def IndexDef) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.failure != nil {
		return db.failure
	}
	for _, d := range db.indexDefs {
		if d.Name == def.Name {
			return nil
		}
	}
	if _, ok := db.files[def.File]; !ok {
		return fmt.Errorf("storage: index %s over unknown file %s", def.Name, def.File)
	}
	if _, err := db.wal.Append(RecCreateIndex, encodeCreateIndex(def.Name, def.File, def.Col)); err != nil {
		return db.failLocked(err)
	}
	db.indexDefs = append(db.indexDefs, def)
	return nil
}

// IndexDefs returns the logged index definitions.
func (db *DB) IndexDefs() []IndexDef {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]IndexDef(nil), db.indexDefs...)
}

// Index returns a tree rebuilt by the last recovery, if any. After a
// fresh Open with an empty log there are none — the catalog owns live
// trees.
func (db *DB) Index(name string) (*BTree, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.indexes[name]
	return t, ok
}

// SetMeta logs an opaque key/value (catalog schemas ride here).
func (db *DB) SetMeta(key, value string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.failure != nil {
		return db.failure
	}
	if _, err := db.wal.Append(RecMeta, encodeMeta(key, value)); err != nil {
		return db.failLocked(err)
	}
	db.meta[key] = value
	return nil
}

// Meta returns one logged metadata value.
func (db *DB) Meta(key string) (string, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	v, ok := db.meta[key]
	return v, ok
}

// MetaAll returns a copy of the metadata map.
func (db *DB) MetaAll() map[string]string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[string]string, len(db.meta))
	for k, v := range db.meta {
		out[k] = v
	}
	return out
}

// ---------------------------------------------------------------------------
// Redo logging (called from HeapFile inside the page latch).

func (db *DB) logInsert(id PageID, slot int, rec []byte) (uint64, error) {
	if err := db.Err(); err != nil {
		return 0, err
	}
	lsn, err := db.wal.Append(RecInsert, encodeSlotRecord(id, slot, rec))
	if err != nil {
		return 0, db.fail(err)
	}
	db.markDirty(id, lsn)
	return lsn, nil
}

func (db *DB) logDelete(id PageID, slot int) (uint64, error) {
	if err := db.Err(); err != nil {
		return 0, err
	}
	lsn, err := db.wal.Append(RecDelete, encodeDelete(id, slot))
	if err != nil {
		return 0, db.fail(err)
	}
	db.markDirty(id, lsn)
	return lsn, nil
}

func (db *DB) logUpdate(id PageID, slot int, rec []byte) (uint64, error) {
	if err := db.Err(); err != nil {
		return 0, err
	}
	lsn, err := db.wal.Append(RecUpdate, encodeSlotRecord(id, slot, rec))
	if err != nil {
		return 0, db.fail(err)
	}
	db.markDirty(id, lsn)
	return lsn, nil
}

func (db *DB) logAlloc(file string, id PageID) error {
	if err := db.Err(); err != nil {
		return err
	}
	if _, err := db.wal.Append(RecAllocPage, encodeAllocPage(file, id)); err != nil {
		return db.fail(err)
	}
	return nil
}

func (db *DB) markDirty(id PageID, lsn uint64) {
	db.dirtyMu.Lock()
	db.dirty[id] = lsn
	db.dirtyMu.Unlock()
}

func (db *DB) isDirty(id PageID) bool {
	db.dirtyMu.Lock()
	_, ok := db.dirty[id]
	db.dirtyMu.Unlock()
	return ok
}

// ---------------------------------------------------------------------------
// Checkpoint.

// Checkpoint flushes every dirty page to the checksummed page file,
// syncs it, then logs a checkpoint record carrying the metadata
// snapshot and the redo position captured before the flush. After it
// returns, recovery replays only the log suffix past that position.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	if db.failure != nil {
		err := db.failure
		db.mu.Unlock()
		return err
	}
	db.mu.Unlock()

	// Redo position first: any mutation that races the flush below is
	// at an offset >= redoPos and will be replayed (the page-LSN guard
	// makes replaying over an already-flushed image a no-op).
	redoPos := db.wal.Tail()

	db.dirtyMu.Lock()
	ids := make([]PageID, 0, len(db.dirty))
	for id := range db.dirty {
		ids = append(ids, id)
	}
	db.dirtyMu.Unlock()

	flushed := make(map[PageID]uint64, len(ids))
	for _, id := range ids {
		p, err := db.store.read(id)
		if err != nil {
			return db.fail(err)
		}
		img, lsn := p.CopyBytes()
		if err := db.pf.WritePage(id, img, lsn); err != nil {
			return db.fail(err)
		}
		flushed[id] = lsn
	}
	if err := db.pf.Sync(); err != nil {
		return db.fail(err)
	}
	// Clear only entries the flush fully covered; a mutation that
	// landed after the copy re-dirtied the page at a higher LSN.
	db.dirtyMu.Lock()
	for id, lsn := range flushed {
		if cur, ok := db.dirty[id]; ok && cur <= lsn {
			delete(db.dirty, id)
		}
	}
	db.dirtyMu.Unlock()

	db.mu.Lock()
	img := checkpointImage{
		redoPos:  redoPos,
		nextPage: PageID(db.store.next.Load()),
		meta:     db.meta,
		indexes:  append([]IndexDef(nil), db.indexDefs...),
	}
	for _, name := range db.fileOrder {
		img.files = append(img.files, checkpointFile{
			name:  name,
			pages: db.files[name].PageIDs(),
		})
	}
	db.mu.Unlock()

	if _, err := db.wal.Append(RecCheckpoint, encodeCheckpoint(img)); err != nil {
		return db.fail(err)
	}
	if err := db.wal.Sync(); err != nil { // explicit barrier under SyncManual
		return db.fail(err)
	}
	db.checkpoints.Add(1)

	// Refresh zone maps off the just-flushed heaps: checkpoint is the
	// natural build point (pages are warm and the write burst that
	// invalidated entries has quiesced). A page that cannot be read or
	// decoded here will not read later either — engine-fatal.
	db.mu.Lock()
	files := make([]*HeapFile, 0, len(db.fileOrder))
	for _, name := range db.fileOrder {
		files = append(files, db.files[name])
	}
	db.mu.Unlock()
	for _, h := range files {
		if err := h.BuildZoneMaps(); err != nil {
			return db.fail(err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fetch-time verification.

// verifyPage is the buffer pool's miss-time integrity check: a clean
// page whose on-disk frame carries the same LSN must match that
// frame's checksum. Dirty pages and pages the log is still ahead of
// are skipped — the WAL, not the frame, governs their contents.
func (db *DB) verifyPage(id PageID, p *Page) error {
	if db.isDirty(id) {
		return nil
	}
	lsn, crc, err := db.pf.FrameLSN(id)
	if errors.Is(err, ErrNoFrame) {
		return nil // never checkpointed; nothing on disk to diverge from
	}
	if err != nil {
		db.reportCorruption(id, err)
		return err
	}
	img, plsn := p.CopyBytes()
	if plsn != lsn {
		return nil // frame belongs to a different epoch; redo governs
	}
	frame := make([]byte, framePayload)
	copy(frame, img)
	binary.BigEndian.PutUint64(frame[PageSize:], lsn)
	if got := crc32.Checksum(frame, castagnoli); got != crc {
		err := fmt.Errorf("%w: page %d: memory crc %08x, frame crc %08x", ErrChecksum, id, got, crc)
		db.reportCorruption(id, err)
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// Recovery.

func (db *DB) recover(recs []Record) error {
	stats := RecoveryStats{RecordsScanned: len(recs)}

	// Last complete checkpoint wins; a checkpoint torn off the tail
	// simply is not in recs and we fall back to the previous one.
	var ck checkpointImage
	ck.redoPos = walHeader
	ck.meta = map[string]string{}
	for _, r := range recs {
		if r.Type != RecCheckpoint {
			continue
		}
		img, err := decodeCheckpoint(r.Payload)
		if err != nil {
			return err
		}
		ck = img
		stats.CheckpointFound = true
	}

	// Install checkpointed state: files, pages (checksum-verified),
	// index defs, metadata.
	quarantined := map[PageID]bool{}
	filePages := map[string][]PageID{}
	pageSeen := map[PageID]bool{}
	for _, f := range ck.files {
		db.files[f.name] = newHeapFile(f.name, db)
		db.fileOrder = append(db.fileOrder, f.name)
		filePages[f.name] = append([]PageID(nil), f.pages...)
		for _, id := range f.pages {
			if pageSeen[id] {
				return fmt.Errorf("storage: recovery: page %d in two files", id)
			}
			pageSeen[id] = true
			img, lsn, err := db.pf.ReadPage(id)
			switch {
			case err == nil:
				db.store.install(id, pageFromImage(img, lsn))
				stats.PagesLoaded++
			case errors.Is(err, ErrNoFrame):
				// Allocated before the checkpoint record but never
				// flushed: every mutation is past redoPos, replay
				// rebuilds it from empty.
				db.store.install(id, NewPage())
				stats.PagesLoaded++
			case errors.Is(err, ErrChecksum):
				// Corrupt frame: quarantine, keep a placeholder so the
				// id stays allocated, and skip its redo records.
				db.store.install(id, NewPage())
				db.bm.checksum.Add(1)
				db.bm.Quarantine(id, err)
				db.reportCorruption(id, err)
				quarantined[id] = true
				stats.PagesQuarantined++
			default:
				return err
			}
		}
	}
	db.indexDefs = append(db.indexDefs, ck.indexes...)
	for k, v := range ck.meta {
		db.meta[k] = v
	}
	db.store.ensureNext(uint32(ck.nextPage))

	// Redo pass: replay the suffix past redoPos in log order. The
	// page-LSN guard inside each redo applier skips mutations a
	// flushed frame already carries.
	for _, r := range recs {
		if r.Off < ck.redoPos {
			continue
		}
		switch r.Type {
		case RecCheckpoint:
			// Only the final checkpoint's image was installed; its own
			// record (and any older one in the suffix) carries no redo.
		case RecCreateFile:
			name, err := decodeCreateFile(r.Payload)
			if err != nil {
				return err
			}
			if _, ok := db.files[name]; !ok {
				db.files[name] = newHeapFile(name, db)
				db.fileOrder = append(db.fileOrder, name)
			}
			stats.RecordsReplayed++
		case RecAllocPage:
			name, id, err := decodeAllocPage(r.Payload)
			if err != nil {
				return err
			}
			if _, ok := db.files[name]; !ok {
				return fmt.Errorf("storage: recovery: alloc for unknown file %s", name)
			}
			if !pageSeen[id] {
				pageSeen[id] = true
				db.store.install(id, NewPage())
				filePages[name] = append(filePages[name], id)
				stats.PagesLoaded++
			}
			stats.RecordsReplayed++
		case RecInsert:
			id, slot, rec, err := decodeSlotRecord(r.Payload)
			if err != nil {
				return err
			}
			if quarantined[id] {
				continue
			}
			p, err := db.store.read(id)
			if err != nil {
				return err
			}
			if err := p.redoInsert(slot, rec, r.LSN); err != nil {
				return err
			}
			stats.RecordsReplayed++
		case RecDelete:
			id, slot, err := decodeDelete(r.Payload)
			if err != nil {
				return err
			}
			if quarantined[id] {
				continue
			}
			p, err := db.store.read(id)
			if err != nil {
				return err
			}
			if err := p.redoDelete(slot, r.LSN); err != nil {
				return err
			}
			stats.RecordsReplayed++
		case RecUpdate:
			id, slot, rec, err := decodeSlotRecord(r.Payload)
			if err != nil {
				return err
			}
			if quarantined[id] {
				continue
			}
			p, err := db.store.read(id)
			if err != nil {
				return err
			}
			if err := p.redoUpdate(slot, rec, r.LSN); err != nil {
				return err
			}
			stats.RecordsReplayed++
		case RecCreateIndex:
			name, file, col, err := decodeCreateIndex(r.Payload)
			if err != nil {
				return err
			}
			have := false
			for _, d := range db.indexDefs {
				if d.Name == name {
					have = true
					break
				}
			}
			if !have {
				db.indexDefs = append(db.indexDefs, IndexDef{Name: name, File: file, Col: col})
			}
			stats.RecordsReplayed++
		case RecMeta:
			key, value, err := decodeMeta(r.Payload)
			if err != nil {
				return err
			}
			db.meta[key] = value
			stats.RecordsReplayed++
		case RecTxnCommit, RecTxnAbort:
			// Transaction outcomes carry no page redo; the commit table
			// is rebuilt by a full-log scan after the redo pass (it must
			// cover commits from before the checkpoint too).
			stats.RecordsReplayed++
		default:
			return fmt.Errorf("%w: unknown type %d at offset %d", ErrWALCorrupt, r.Type, r.Off)
		}
	}

	// Reattach recovered page lists and live counts.
	for _, name := range db.fileOrder {
		if err := db.files[name].restore(filePages[name]); err != nil {
			return err
		}
	}
	stats.Files = len(db.fileOrder)

	// Rebuild secondary indexes by backfill: trees are not logged, the
	// recovered heaps are their source of truth.
	for _, def := range db.indexDefs {
		h, ok := db.files[def.File]
		if !ok {
			return fmt.Errorf("storage: recovery: index %s over unknown file %s", def.Name, def.File)
		}
		tree, err := db.backfillIndex(def, h, quarantined)
		if err != nil {
			return err
		}
		db.indexes[def.Name] = tree
		stats.Indexes++
	}

	// Rebuild zone maps from the recovered heaps. restore() wiped any
	// pre-crash entries; quarantined pages are skipped inside
	// BuildZoneMaps and stay zone-less — an unreadable page is never
	// pruned on the strength of a summary taken before it went bad.
	for _, name := range db.fileOrder {
		if err := db.files[name].BuildZoneMaps(); err != nil {
			return err
		}
	}

	db.recovery = stats
	return nil
}

// backfillIndex rebuilds one B-tree from its heap, skipping
// quarantined pages (their records are unrecoverable; the scan layer
// reports them when touched directly).
func (db *DB) backfillIndex(def IndexDef, h *HeapFile, quarantined map[PageID]bool) (*BTree, error) {
	tree := NewBTree(def.Name)
	for _, id := range h.PageIDs() {
		if quarantined[id] {
			continue
		}
		p, err := db.bm.GetPage(id)
		if err != nil {
			if errors.Is(err, ErrQuarantined) {
				continue
			}
			return nil, err
		}
		for s := 0; s < p.Slots(); s++ {
			rec, err := p.Get(s)
			if errors.Is(err, ErrSlotDeleted) || errors.Is(err, ErrBadSlot) {
				continue
			}
			if err != nil {
				db.bm.Unpin(id)
				return nil, err
			}
			tu, _, err := DecodeRecord(rec)
			if err != nil {
				db.bm.Unpin(id)
				return nil, err
			}
			if def.Col < 0 || def.Col >= len(tu) {
				db.bm.Unpin(id)
				return nil, fmt.Errorf("storage: recovery: index %s col %d out of range", def.Name, def.Col)
			}
			tree.Insert(tu[def.Col], RID{Page: id, Slot: s})
		}
		db.bm.Unpin(id)
	}
	return tree, nil
}
