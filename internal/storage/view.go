package storage

import "fmt"

// HeapReader is the read surface scan operators consume: *HeapFile
// implements it directly (every version visible — the legacy,
// version-blind behaviour), and *HeapView implements it bound to a
// snapshot. Retyping the operators to this interface is the CC-layer
// plug-in boundary: the same serial, batch and morsel scan pipelines
// run transactional or non-transactional depending only on which
// reader the planner hands them.
type HeapReader interface {
	Name() string
	PageIDs() []PageID
	PageTuples(id PageID) ([]Tuple, error)
	PageTuplesInto(id PageID, dst []Tuple) ([]Tuple, error)
	PageRowsInto(id PageID, ts []Tuple, rids []RID) ([]Tuple, []RID, error)
	Get(rid RID) (Tuple, error)
	All() ([]Tuple, error)
}

// HeapView is a snapshot-bound reader over a heap file: every read
// primitive filters record versions through the visibility closure,
// so scans are repeatable against concurrent writers without taking
// any lock beyond the page read latch: a verdict is a latch-free read
// of the commit table and never changes once the snapshot is taken.
type HeapView struct {
	h   *HeapFile
	vis Visibility
}

// View binds a heap file to a snapshot's visibility.
func (h *HeapFile) View(vis Visibility) *HeapView {
	return &HeapView{h: h, vis: vis}
}

// Name returns the underlying file name.
func (v *HeapView) Name() string { return v.h.Name() }

// PageIDs returns a read-only snapshot of the file's page list.
func (v *HeapView) PageIDs() []PageID { return v.h.PageIDs() }

// PageTuples decodes one page's visible tuples.
func (v *HeapView) PageTuples(id PageID) ([]Tuple, error) {
	return v.PageTuplesInto(id, nil)
}

// PageTuplesInto appends one page's visible tuples to dst under a
// single latch acquisition.
func (v *HeapView) PageTuplesInto(id PageID, dst []Tuple) ([]Tuple, error) {
	return v.h.PageTuplesVisibleInto(id, dst, v.vis)
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
func (v *HeapView) Get(rid RID) (Tuple, error) { return v.h.getVisible(rid, v.vis) }

// PageRowsInto appends one page's visible tuples and their RIDs, read
// from a single image of the page.
func (v *HeapView) PageRowsInto(id PageID, ts []Tuple, rids []RID) ([]Tuple, []RID, error) {
	ts, err := v.h.pageRows(id, ts, &rids, v.vis)
	return ts, rids, err
}

// Scan calls fn for every visible record in file order.
func (v *HeapView) Scan(fn func(rid RID, t Tuple) bool) error {
	return v.h.scanPages(v.h.PageIDs(), v.vis, fn)
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
