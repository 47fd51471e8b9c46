// Package operators implements the data-operator layer of the
// architecture in two halves:
//
//   - the batch pipeline the query engine runs every SELECT on (heap
//     and index scans, vectorized filter kernels, partitioned hash
//     build/probe, grouped aggregation, parallel sort and Top-K), fanned
//     out over worker goroutines, plus the few Volcano-style pull
//     iterators it still composes (index scans, the index nested-loop
//     join), each a fine-grained component in the paper's sense; and
//
//   - the *adaptive* operators the paper names as required substrate
//     (§2, §6): the symmetric pipelined hash join [31], the ripple
//     join for online aggregation [14], XJoin [29] with its reactive
//     phase, and Eddies [1] — implemented over a discrete-time source
//     model so their time-to-first-tuple behaviour against slow and
//     bursty remote sources can be measured, which is exactly the
//     regime the paper motivates them for.
package operators

import (
	"errors"
	"math"

	"github.com/adm-project/adm/internal/storage"
)

// Iterator is the Volcano pull interface.
type Iterator interface {
	// Open prepares the operator tree.
	Open() error
	// Next returns the next tuple; ok=false means exhausted.
	Next() (storage.Tuple, bool, error)
	// Close releases resources; the iterator may be reopened.
	Close() error
}

// ErrNotOpen is returned by Next on an unopened iterator.
var ErrNotOpen = errors.New("operators: iterator not open")

// Drain runs an iterator to completion and returns all tuples. Close
// errors surface deferred storage failures, so they are joined with
// the drain error rather than discarded.
func Drain(it Iterator) (out []storage.Tuple, err error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, it.Close()) }()
	for {
		t, ok, nerr := it.Next()
		if nerr != nil || !ok {
			return out, nerr
		}
		out = append(out, t)
	}
}

// Count runs an iterator to completion and returns the tuple count.
func Count(it Iterator) (n int, err error) {
	if err := it.Open(); err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, it.Close()) }()
	for {
		_, ok, nerr := it.Next()
		if nerr != nil || !ok {
			return n, nerr
		}
		n++
	}
}

// ---------------------------------------------------------------------------
// Sources.

// MemScan iterates a tuple slice.
type MemScan struct {
	Tuples []storage.Tuple
	pos    int
	open   bool
}

// NewMemScan wraps tuples in an iterator.
func NewMemScan(tuples []storage.Tuple) *MemScan { return &MemScan{Tuples: tuples} }

// Open implements Iterator.
func (m *MemScan) Open() error { m.pos, m.open = 0, true; return nil }

// Next implements Iterator.
func (m *MemScan) Next() (storage.Tuple, bool, error) {
	if !m.open {
		return nil, false, ErrNotOpen
	}
	if m.pos >= len(m.Tuples) {
		return nil, false, nil
	}
	t := m.Tuples[m.pos]
	m.pos++
	return t, true, nil
}

// Close implements Iterator.
func (m *MemScan) Close() error { m.open = false; return nil }

// HeapScan iterates a heap file (snapshot of pages at Open).
type HeapScan struct {
	File *storage.HeapView
	buf  []storage.Tuple
	pos  int
	open bool
}

// NewHeapScan scans file.
func NewHeapScan(file *storage.HeapView) *HeapScan { return &HeapScan{File: file} }

// Open implements Iterator.
func (h *HeapScan) Open() error {
	all, err := h.File.All()
	if err != nil {
		return err
	}
	h.buf, h.pos, h.open = all, 0, true
	return nil
}

// Next implements Iterator.
func (h *HeapScan) Next() (storage.Tuple, bool, error) {
	if !h.open {
		return nil, false, ErrNotOpen
	}
	if h.pos >= len(h.buf) {
		return nil, false, nil
	}
	t := h.buf[h.pos]
	h.pos++
	return t, true, nil
}

// Close implements Iterator.
func (h *HeapScan) Close() error { h.open, h.buf = false, nil; return nil }

// IndexScan iterates tuples whose indexed column lies in [Lo,Hi],
// fetching through the heap file.
type IndexScan struct {
	File   *storage.HeapView
	Index  *storage.BTree
	Lo, Hi storage.Value
	rids   []storage.RID
	pos    int
	open   bool
}

// NewIndexScan builds a range scan over index into file.
func NewIndexScan(file *storage.HeapView, index *storage.BTree, lo, hi storage.Value) *IndexScan {
	return &IndexScan{File: file, Index: index, Lo: lo, Hi: hi}
}

// Open implements Iterator.
func (s *IndexScan) Open() error {
	s.rids = s.rids[:0]
	s.Index.Range(s.Lo, s.Hi, func(_ storage.Value, rid storage.RID) bool {
		s.rids = append(s.rids, rid)
		return true
	})
	if f, ok := s.Hi.AsFloat(); ok && !math.IsNaN(f) && s.Index.HasNaN() {
		// NaN equals every number to a predicate, but the index files it last.
		s.rids = append(s.rids, s.Index.Search(storage.FloatValue(math.NaN()))...)
	}
	s.pos, s.open = 0, true
	return nil
}

// Next implements Iterator.
func (s *IndexScan) Next() (storage.Tuple, bool, error) {
	if !s.open {
		return nil, false, ErrNotOpen
	}
	for s.pos < len(s.rids) {
		rid := s.rids[s.pos]
		s.pos++
		t, err := s.File.Get(rid)
		if errors.Is(err, storage.ErrNotFound) {
			continue // deleted since Range snapshot
		}
		if err != nil {
			return nil, false, err
		}
		return t, true, nil
	}
	return nil, false, nil
}

// RID reports where the tuple Next last returned lives.
func (s *IndexScan) RID() storage.RID { return s.rids[s.pos-1] }

// Close implements Iterator.
func (s *IndexScan) Close() error { s.open = false; return nil }

// Predicate tests a tuple.
type Predicate func(storage.Tuple) bool
