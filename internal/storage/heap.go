package storage

import (
	"errors"
	"fmt"
	"sync"
)

// RID is a record identifier: page + slot. RIDs are stable across
// deletes and compaction.
type RID struct {
	Page PageID
	Slot int
}

func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// ErrNotFound is returned for missing records.
var ErrNotFound = errors.New("storage: record not found")

// HeapFile is an unordered record file over the buffer manager. When
// attached to a DB (db != nil) every mutation is redo-logged to the
// WAL before it is acknowledged; detached heap files keep the original
// in-memory-only behaviour.
type HeapFile struct {
	mu    sync.Mutex
	name  string
	bm    *BufferManager
	store *Store
	db    *DB
	pages []PageID
	live  int
	// zm holds the file's per-page zone maps. Mutation paths that can
	// change page VALUES (insert, update) invalidate the page's entry
	// both before touching it and again once the mutation lands — the
	// second bump is what keeps a concurrent BuildZoneMaps from keeping
	// a summary of the pre-write image (see zonemap.go). Delete and
	// Xmax stamping leave entries in place — removal and version-header
	// rewrites keep the summary a superset.
	zm ZoneMaps
}

// NewHeapFile creates an empty heap file.
func NewHeapFile(name string, store *Store, bm *BufferManager) *HeapFile {
	return newHeapFile(name, store, bm, nil)
}

// newHeapFile is the shared constructor (recovery builds files with
// the owning DB attached). Registering the zone invalidation with the
// buffer manager keeps quarantine and pruning consistent: a page
// pulled from service after its entry was built loses the entry, so
// every later scan attempts the read and reports ErrQuarantined
// instead of silently pruning past corruption.
func newHeapFile(name string, store *Store, bm *BufferManager, db *DB) *HeapFile {
	h := &HeapFile{name: name, bm: bm, store: store, db: db}
	if bm != nil {
		bm.OnQuarantine(h.zm.invalidate)
	}
	return h
}

// Name returns the file name.
func (h *HeapFile) Name() string { return h.name }

// Count returns the number of live records.
func (h *HeapFile) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.live
}

// Pages returns the number of pages in the file.
func (h *HeapFile) Pages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pages)
}

// Insert appends a tuple and returns its RID.
func (h *HeapFile) Insert(t Tuple) (RID, error) {
	return h.insertRec(EncodeTuple(t))
}

// InsertVersion appends a tuple carrying an MVCC header — the
// transaction layer's insert: the version is born with Xmin set to
// the writing transaction and becomes globally visible only when that
// transaction's commit record is durable.
func (h *HeapFile) InsertVersion(t Tuple, v Version) (RID, error) {
	return h.insertRec(EncodeVersionedTuple(t, v))
}

func (h *HeapFile) insertRec(rec []byte) (RID, error) {
	if len(rec) > PageSize-pageHeaderSize-2*slotSize {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Try the last page first (append locality).
	if n := len(h.pages); n > 0 {
		id := h.pages[n-1]
		p, err := h.bm.GetPage(id)
		if err != nil {
			return RID{}, err
		}
		h.zm.invalidate(id) // before the mutation is observable
		slot, err := h.insertPage(p, id, rec)
		h.zm.invalidate(id) // and after: outdate any mid-write build
		h.bm.Unpin(id)
		if err == nil {
			h.live++
			return RID{Page: id, Slot: slot}, nil
		}
		if !errors.Is(err, ErrPageFull) {
			return RID{}, err
		}
	}
	id := h.store.Allocate()
	if h.db != nil {
		if err := h.db.logAlloc(h.name, id); err != nil {
			return RID{}, err
		}
	}
	h.pages = append(h.pages, id)
	p, err := h.bm.GetPage(id)
	if err != nil {
		return RID{}, err
	}
	defer h.bm.Unpin(id)
	h.zm.invalidate(id)       // before the mutation is observable
	defer h.zm.invalidate(id) // and after: outdate any mid-write build
	slot, err := h.insertPage(p, id, rec)
	if err != nil {
		return RID{}, err
	}
	h.live++
	return RID{Page: id, Slot: slot}, nil
}

// insertPage applies one insert, logging it inside the page latch
// when the file is durable.
func (h *HeapFile) insertPage(p *Page, id PageID, rec []byte) (int, error) {
	if h.db == nil {
		return p.Insert(rec)
	}
	return p.InsertWith(rec, func(slot int) (uint64, error) {
		return h.db.logInsert(id, slot, rec)
	})
}

// Get fetches the tuple at rid.
func (h *HeapFile) Get(rid RID) (Tuple, error) { return h.getVisible(rid, nil) }

// getVisible fetches the tuple at rid if vis (nil: every version)
// admits its version; one it does not reads as errNotVisible.
func (h *HeapFile) getVisible(rid RID, vis Visibility) (Tuple, error) {
	p, err := h.bm.GetPage(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.bm.Unpin(rid.Page)
	t, err := p.getVisible(rid.Slot, vis)
	if errors.Is(err, ErrSlotDeleted) || errors.Is(err, ErrBadSlot) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	return t, err
}

// SetXmax stamps the deleting transaction on the record at rid — the
// MVCC claim. `decide` inspects the record's current version under
// the page write latch and may refuse (write conflict); decision and
// stamp being one critical section is what makes first-claimer-wins
// sound. A nil decide stamps unconditionally (rollback's un-claim).
// Stamping a versioned record is an in-place same-length rewrite;
// upgrading a plain record grows it by the header and may move it, so
// the record's resulting RID is returned.
func (h *HeapFile) SetXmax(rid RID, xmax uint64, decide func(Version) error) (RID, error) {
	slot, err := h.setXmaxOnce(rid, xmax, decide)
	if errors.Is(err, ErrPageFull) {
		// A plain-record upgrade did not fit: reclaim tombstoned space
		// and retry once (decide re-runs — the record may have changed
		// between the latch holds).
		if p, perr := h.bm.GetPage(rid.Page); perr == nil {
			p.Compact()
			h.bm.Unpin(rid.Page)
			slot, err = h.setXmaxOnce(rid, xmax, decide)
		}
	}
	if err != nil {
		if errors.Is(err, ErrSlotDeleted) && decide != nil {
			// A guarded claim found the slot tombstoned: a concurrent
			// claimer's plain→versioned upgrade moved the record (or a
			// physical delete removed it) between the claimant reading
			// the RID and reaching the page latch. To the loser that is
			// a write conflict — retryable — not a missing row.
			return RID{}, fmt.Errorf("%w: record at %s concurrently moved or removed", ErrWriteConflict, rid)
		}
		if errors.Is(err, ErrSlotDeleted) || errors.Is(err, ErrBadSlot) {
			return RID{}, fmt.Errorf("%w: %s", ErrNotFound, rid)
		}
		return RID{}, err
	}
	return RID{Page: rid.Page, Slot: slot}, nil
}

func (h *HeapFile) setXmaxOnce(rid RID, xmax uint64, decide func(Version) error) (int, error) {
	p, err := h.bm.GetPage(rid.Page)
	if err != nil {
		return 0, err
	}
	defer h.bm.Unpin(rid.Page)
	var after func(newSlot int, rec []byte) (uint64, error)
	if h.db != nil {
		after = func(newSlot int, rec []byte) (uint64, error) {
			return h.db.logUpdate(rid.Page, rid.Slot, newSlot, rec)
		}
	}
	return p.MutateWith(rid.Slot, func(old []byte) ([]byte, error) {
		if decide != nil {
			v, err := RecordVersion(old)
			if err != nil {
				return nil, err
			}
			if err := decide(v); err != nil {
				return nil, err
			}
		}
		return stampXmax(old, xmax), nil
	}, after)
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	p, err := h.bm.GetPage(rid.Page)
	if err != nil {
		return err
	}
	defer h.bm.Unpin(rid.Page)
	var derr error
	if h.db == nil {
		derr = p.Delete(rid.Slot)
	} else {
		derr = p.DeleteWith(rid.Slot, func() (uint64, error) {
			return h.db.logDelete(rid.Page, rid.Slot)
		})
	}
	if derr != nil {
		if errors.Is(derr, ErrSlotDeleted) || errors.Is(derr, ErrBadSlot) {
			return fmt.Errorf("%w: %s", ErrNotFound, rid)
		}
		return derr
	}
	h.mu.Lock()
	h.live--
	h.mu.Unlock()
	return nil
}

// Update rewrites the record at rid in place when it fits; otherwise
// the record moves within its page (RID slot may change) or, if the
// page cannot hold it, is deleted and re-inserted elsewhere. The
// record's current RID is returned.
func (h *HeapFile) Update(rid RID, t Tuple) (RID, error) {
	rec := EncodeTuple(t)
	p, err := h.bm.GetPage(rid.Page)
	if err != nil {
		return RID{}, err
	}
	h.zm.invalidate(rid.Page) // before the mutation is observable
	var slot int
	if h.db == nil {
		slot, err = p.Update(rid.Slot, rec)
	} else {
		slot, err = p.UpdateWith(rid.Slot, rec, func(newSlot int) (uint64, error) {
			return h.db.logUpdate(rid.Page, rid.Slot, newSlot, rec)
		})
	}
	h.zm.invalidate(rid.Page) // and after: outdate any mid-write build
	h.bm.Unpin(rid.Page)
	if err == nil {
		return RID{Page: rid.Page, Slot: slot}, nil
	}
	if errors.Is(err, ErrSlotDeleted) || errors.Is(err, ErrBadSlot) {
		return RID{}, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	if !errors.Is(err, ErrPageFull) {
		return RID{}, err
	}
	// Record no longer fits its page: move it.
	if err := h.Delete(rid); err != nil {
		return RID{}, err
	}
	return h.Insert(t)
}

// PageIDs returns a snapshot of the file's page list. The snapshot is
// the unit of work distribution for parallel scans: each page id can
// be handed to a different worker and read via PageTuples. It aliases
// the file's own list, capped at its current length, and is read-only:
// the list is only ever appended to (which never writes below the
// cap) or replaced whole by recovery, so no copy is needed.
func (h *HeapFile) PageIDs() []PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.pages)
	return h.pages[:n:n]
}

// PageTuples decodes every live tuple on one page under the page read
// latch. It is safe to call from many goroutines at once — this is
// the per-partition cursor primitive of the parallel executor.
func (h *HeapFile) PageTuples(id PageID) ([]Tuple, error) {
	return h.PageTuplesInto(id, nil)
}

// PageTuplesInto is PageTuples with a caller-owned batch: the page's
// live tuples are appended to dst (usually dst[:0] of a recycled
// batch) under a single latch acquisition, decoded arena-style with no
// per-tuple allocation. It replaces the copy-per-Get discipline on hot
// paths — hash-join builds and probes read whole pages through here
// instead of RID-at-a-time Get calls. The returned tuples stay valid
// after dst is recycled (they own their arena), so both retaining and
// streaming consumers are safe.
func (h *HeapFile) PageTuplesInto(id PageID, dst []Tuple) ([]Tuple, error) {
	return h.pageRows(id, dst, nil, nil)
}

// PageTuplesVisibleInto is PageTuplesInto filtered through a
// snapshot: only versions vis reports visible are appended — the
// page-granular MVCC read primitive HeapView threads through the
// batch executor.
func (h *HeapFile) PageTuplesVisibleInto(id PageID, dst []Tuple, vis Visibility) ([]Tuple, error) {
	return h.pageRows(id, dst, nil, vis)
}

// PageRowsInto is PageTuplesInto that also appends each tuple's RID:
// the read a writer selects its victims through. See Page.rowsInto for
// why tuples and RIDs must come from one image of the page.
func (h *HeapFile) PageRowsInto(id PageID, ts []Tuple, rids []RID) ([]Tuple, []RID, error) {
	ts, err := h.pageRows(id, ts, &rids, nil)
	return ts, rids, err
}

// pageRows is the one pinned page read behind the three above.
func (h *HeapFile) pageRows(id PageID, dst []Tuple, rids *[]RID, vis Visibility) ([]Tuple, error) {
	p, err := h.bm.GetPage(id)
	if err != nil {
		return dst, err
	}
	defer h.bm.Unpin(id)
	return p.rowsInto(id, dst, rids, vis)
}

// ScanPartition calls fn for every live record on the pages of one
// partition (pages whose index i satisfies i % parts == part, over a
// snapshot of the page list). Distinct partitions cover disjoint page
// sets, so `parts` goroutines each scanning one partition together
// visit every record exactly once.
func (h *HeapFile) ScanPartition(part, parts int, fn func(rid RID, t Tuple) bool) error {
	if parts < 1 {
		return fmt.Errorf("storage: ScanPartition parts = %d", parts)
	}
	all := h.PageIDs()
	var pages []PageID
	for i := part; i < len(all); i += parts {
		pages = append(pages, all[i])
	}
	return h.scanPages(pages, nil, fn)
}

// Scan calls fn for every live record in file order; returning false
// stops the scan early. The tuples are the pages' shared decode images:
// fn must not modify them.
func (h *HeapFile) Scan(fn func(rid RID, t Tuple) bool) error {
	return h.scanPages(h.PageIDs(), nil, fn)
}

// scanPages reads page-at-a-time (pageRows) and calls fn outside every
// latch and pin, so fn may panic or take its time.
func (h *HeapFile) scanPages(pages []PageID, vis Visibility, fn func(rid RID, t Tuple) bool) error {
	var ts []Tuple
	var rids []RID
	for _, id := range pages {
		var err error
		rids = rids[:0]
		if ts, err = h.pageRows(id, ts[:0], &rids, vis); err != nil {
			return err
		}
		for i, t := range ts {
			if !fn(rids[i], t) {
				return nil
			}
		}
	}
	return nil
}

// All collects every live tuple (test/bench convenience).
func (h *HeapFile) All() ([]Tuple, error) {
	var out []Tuple
	err := h.Scan(func(_ RID, t Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out, err
}

// restore installs the recovered page list and recounts live records
// (recovery only; runs before the file is visible to queries).
func (h *HeapFile) restore(pages []PageID) error {
	live := 0
	for _, id := range pages {
		p, err := h.bm.GetPage(id)
		if errors.Is(err, ErrQuarantined) {
			continue // unreadable; reported, not counted
		}
		if err != nil {
			return err
		}
		for s := 0; s < p.Slots(); s++ {
			if p.Live(s) {
				live++
			}
		}
		h.bm.Unpin(id)
	}
	h.mu.Lock()
	h.pages = append([]PageID(nil), pages...)
	h.live = live
	h.mu.Unlock()
	h.zm.reset() // stale pre-crash zones never survive into recovery
	return nil
}

// Vacuum compacts every page in the file.
func (h *HeapFile) Vacuum() error {
	h.mu.Lock()
	pages := append([]PageID(nil), h.pages...)
	h.mu.Unlock()
	for _, id := range pages {
		p, err := h.bm.GetPage(id)
		if err != nil {
			return err
		}
		p.Compact()
		h.bm.Unpin(id)
	}
	return nil
}
