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

// HeapFile is an unordered record file over the page table of the DB
// that owns it: every mutation is redo-logged to the WAL before it
// is acknowledged. Every record is a row version (version.go), written
// through a transaction (Txn.Insert/Delete/Update). Every read goes
// through a HeapView: a transaction's (Txn.View) sees its snapshot, a
// blind one (Blind) every version, live or dead — what index backfill
// wants. The file keeps no per-page state of its own beyond the page
// list: a page's zone summary is part of its decode image (zonemap.go).
type HeapFile struct {
	mu    sync.Mutex
	name  string
	db    *DB
	bm    *BufferManager
	pages []PageID
	live  int
}

// newHeapFile builds one of db's files (CreateFile and recovery).
func newHeapFile(name string, db *DB) *HeapFile {
	return &HeapFile{name: name, db: db, bm: db.bm}
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
		slot, err := h.insertPage(p, id, rec)
		h.bm.Unpin(id)
		if err == nil {
			h.live++
			return RID{Page: id, Slot: slot}, nil
		}
		if !errors.Is(err, ErrPageFull) {
			return RID{}, err
		}
	}
	id := h.bm.Allocate()
	if err := h.db.logAlloc(h.name, id); err != nil {
		return RID{}, err
	}
	h.pages = append(h.pages, id)
	p, err := h.bm.GetPage(id)
	if err != nil {
		return RID{}, err
	}
	defer h.bm.Unpin(id)
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
	err = p.SetXmaxWith(rid.Slot, xmax, decide, func(rec []byte) (uint64, error) {
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
// be handed to a different worker and read via a view's
// PageTuplesInto. It aliases the file's own list, capped at its
// current length, and is read-only: the list is only ever appended to
// (which never writes below the cap) or replaced whole by recovery, so
// no copy is needed.
func (h *HeapFile) PageIDs() []PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.pages)
	return h.pages[:n:n]
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
		// Compaction is unlogged and keeps the LSN: dirty, so the next
		// checkpoint flushes the new image instead of its scrub finding
		// it unlike its frame.
		h.db.markDirty(id, p.LSN())
		h.bm.Unpin(id)
	}
	return nil
}
