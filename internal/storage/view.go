package storage

import (
	"errors"
	"fmt"
)

// HeapView is the one reader of a heap file. It holds the transaction
// it reads for: each page-granular call reads that transaction's
// snapshot once and judges the page against it, whole when its version
// summary allows, else row by row (Page.rowsInto), so scans are
// repeatable against concurrent writers with no lock beyond the page
// read latch: a verdict is a latch-free read of the commit table and
// never changes once the snapshot is taken. The snapshot is read per
// call, not fixed when the view is made, because a transaction's id is
// drawn at its first write: a view opened before that write must still
// see it. A view with no transaction (HeapFile.Blind) reads every
// version, live or dead.
type HeapView struct {
	h   *HeapFile
	txn *Txn
}

// Blind returns a view of every version, live or dead: the reader of
// index backfill and raw-scan measurements.
func (h *HeapFile) Blind() *HeapView { return &HeapView{h: h} }

// PageIDs returns a read-only snapshot of the file's page list.
func (v *HeapView) PageIDs() []PageID { return v.h.PageIDs() }

// PageTuplesInto appends one page's visible tuples to dst: ReadPage
// with no filter and no RIDs.
func (v *HeapView) PageTuplesInto(id PageID, dst []Tuple) ([]Tuple, error) {
	return v.ReadPage(id, dst, nil, nil)
}

// errNotVisible is how Get reports a version outside the snapshot:
// preallocated, because index entries cover every version, so an index
// scan meets one per dead version of each row it looks up.
var errNotVisible = fmt.Errorf("%w: version not visible", ErrNotFound)

// Get fetches the tuple at rid if its version is visible; an
// invisible version reads as ErrNotFound, which is how index scans
// (whose entries cover every version) skip the ones outside the
// snapshot. Visibility is judged from the version header alone, so a
// dead version is never decoded.
func (v *HeapView) Get(rid RID) (Tuple, error) {
	p, err := v.h.bm.GetPage(rid.Page)
	if err != nil {
		return nil, err
	}
	defer v.h.bm.Unpin(rid.Page)
	t, err := p.getVisible(rid.Slot, v.txn)
	if errors.Is(err, ErrSlotDeleted) || errors.Is(err, ErrBadSlot) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	return t, err
}

// PageRowsInto appends one page's visible tuples and their RIDs:
// ReadPage with no filter.
func (v *HeapView) PageRowsInto(id PageID, ts []Tuple, rids []RID) ([]Tuple, []RID, error) {
	ts, err := v.ReadPage(id, ts, &rids, nil)
	return ts, rids, err
}

// ReadPage is the pinned page read behind every page-granular read
// (Page.rowsInto): it appends the visible tuples of one page that f
// keeps (nil f: all of them) to dst, and their RIDs to *rids when rids
// is non-nil. A page f vetoes on its image's zone summary yields none;
// the summary covers every version, so the veto is sound for every
// view. The page is decoded under one read-latch acquisition,
// arena-style, and safe to read from many goroutines at once: the
// per-partition cursor primitive of the parallel executor. The
// returned tuples stay valid after dst is recycled (they own their
// arena), so both retaining and streaming consumers are safe.
func (v *HeapView) ReadPage(id PageID, dst []Tuple, rids *[]RID, f RowFilter) ([]Tuple, error) {
	p, err := v.h.bm.GetPage(id)
	if err != nil {
		return dst, err
	}
	defer v.h.bm.Unpin(id)
	return p.rowsInto(id, dst, rids, v.txn, f)
}

// Scan calls fn for every visible record in file order; returning
// false stops the scan early. It reads page-at-a-time and calls fn
// outside every latch and pin, so fn may panic or take its time. The
// tuples are the pages' shared decode images: fn must not modify
// them.
func (v *HeapView) Scan(fn func(rid RID, t Tuple) bool) error {
	var ts []Tuple
	var rids []RID
	for _, id := range v.h.PageIDs() {
		var err error
		if ts, rids, err = v.PageRowsInto(id, ts[:0], rids[:0]); err != nil {
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

// All collects every visible tuple.
func (v *HeapView) All() ([]Tuple, error) {
	var out []Tuple
	err := v.Scan(func(_ RID, t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out, err
}
