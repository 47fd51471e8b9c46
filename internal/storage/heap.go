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

// HeapFile is an unordered record file over the buffer manager of the
// DB that owns it: every mutation is redo-logged to the WAL before it
// is acknowledged. Every record is a row version (version.go), written
// through a transaction (Txn.Insert/Delete/Update). HeapFile's own
// reads are version-blind — every version, live or dead — which is
// what recovery, index backfill and zone-map builds want; queries read
// through a snapshot-bound HeapView.
type HeapFile struct {
	mu    sync.Mutex
	name  string
	db    *DB
	bm    *BufferManager
	pages []PageID
	live  int
	// zm holds the file's per-page zone maps. Inserts, the only
	// mutation that can change page VALUES, invalidate the page's entry
	// both before touching it and again once the mutation lands — the
	// second bump is what keeps a concurrent BuildZoneMaps from keeping
	// a summary of the pre-write image (see zonemap.go). Delete and
	// Xmax stamping leave entries in place — removal and version-header
	// rewrites keep the summary a superset.
	zm ZoneMaps
}

// newHeapFile builds one of db's files (CreateFile and recovery).
// Registering the zone invalidation with the buffer manager keeps
// quarantine and pruning consistent: a page pulled from service after
// its entry was built loses the entry, so every later scan attempts the
// read and reports ErrQuarantined instead of silently pruning past
// corruption.
func newHeapFile(name string, db *DB) *HeapFile {
	h := &HeapFile{name: name, db: db, bm: db.bm}
	h.bm.OnQuarantine(h.zm.invalidate)
	return h
}

// Name returns the file name.
func (h *HeapFile) Name() string { return h.name }

// Count returns the number of records on the file's pages, every
// version.
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

// insertRec appends one record image (Txn.Insert's) and returns its
// RID.
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
	id := h.db.store.Allocate()
	if err := h.db.logAlloc(h.name, id); err != nil {
		return RID{}, err
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

// insertPage applies one insert, logging it inside the page latch.
func (h *HeapFile) insertPage(p *Page, id PageID, rec []byte) (int, error) {
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
// The stamp is a same-length rewrite in place: the record keeps its
// RID.
func (h *HeapFile) SetXmax(rid RID, xmax uint64, decide func(Version) error) error {
	p, err := h.bm.GetPage(rid.Page)
	if err != nil {
		return err
	}
	defer h.bm.Unpin(rid.Page)
	err = p.MutateWith(rid.Slot, func(old []byte) ([]byte, error) {
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
	}, func(rec []byte) (uint64, error) {
		return h.db.logUpdate(rid.Page, rid.Slot, rec)
	})
	if errors.Is(err, ErrSlotDeleted) || errors.Is(err, ErrBadSlot) {
		return fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	return err
}

// Delete tombstones the record at rid: how rollback removes its own
// inserts.
func (h *HeapFile) Delete(rid RID) error {
	p, err := h.bm.GetPage(rid.Page)
	if err != nil {
		return err
	}
	defer h.bm.Unpin(rid.Page)
	err = p.DeleteWith(rid.Slot, func() (uint64, error) {
		return h.db.logDelete(rid.Page, rid.Slot)
	})
	if err != nil {
		if errors.Is(err, ErrSlotDeleted) || errors.Is(err, ErrBadSlot) {
			return fmt.Errorf("%w: %s", ErrNotFound, rid)
		}
		return err
	}
	h.mu.Lock()
	h.live--
	h.mu.Unlock()
	return nil
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

// PageTuples decodes every record on one page, every version.
func (h *HeapFile) PageTuples(id PageID) ([]Tuple, error) {
	return h.PageTuplesInto(id, nil)
}

// PageTuplesInto is PageTuples with a caller-owned batch: the page's
// tuples are appended to dst (usually dst[:0] of a recycled batch)
// under a single latch acquisition, decoded arena-style with no
// per-tuple allocation. It is safe to call from many goroutines at
// once — the per-partition cursor primitive of the parallel executor.
// The returned tuples stay valid after dst is recycled (they own their
// arena), so both retaining and streaming consumers are safe.
func (h *HeapFile) PageTuplesInto(id PageID, dst []Tuple) ([]Tuple, error) {
	return h.pageRows(id, dst, nil, nil)
}

// PageRowsInto is PageTuplesInto that also appends each tuple's RID:
// tuples and RIDs come from one image of the page (Page.rowsInto).
func (h *HeapFile) PageRowsInto(id PageID, ts []Tuple, rids []RID) ([]Tuple, []RID, error) {
	ts, err := h.pageRows(id, ts, &rids, nil)
	return ts, rids, err
}

// pageRows is the one pinned page read behind every page-granular read.
func (h *HeapFile) pageRows(id PageID, dst []Tuple, rids *[]RID, vis Visibility) ([]Tuple, error) {
	p, err := h.bm.GetPage(id)
	if err != nil {
		return dst, err
	}
	defer h.bm.Unpin(id)
	return p.rowsInto(id, dst, rids, vis)
}

// Scan calls fn for every record in file order, every version;
// returning false stops the scan early. The tuples are the pages'
// shared decode images: fn must not modify them.
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

// All collects every record's tuple, every version.
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
