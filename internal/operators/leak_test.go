// Leak audit for operator error paths. Two invariants:
//
//  1. An Open() that returns an error hands NOTHING to the caller —
//     no pooled batch may be held by the operator, and the input must
//     not be left open (the caller does not Close after a failed
//     Open, so anything acquired before the failure leaks).
//  2. A pipeline that errors mid-stream still releases every pinned
//     buffer-pool frame once the root is closed: after Close on any
//     error path, BufferManager.PinnedFrames() returns to baseline.
//
// The audit instrument is a pair of test iterators that count
// Open/Close calls and fail on demand at any point in the stream.
package operators

import (
	"errors"
	"sync"
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

var errBoom = errors.New("boom")

// auditIter is a leak-checking Volcano iterator: it serves rows,
// errors on demand (at Open or after failAfter rows), and counts
// Open/Close calls so tests can assert the balance.
type auditIter struct {
	rows      []storage.Tuple
	failOpen  bool
	failAfter int // error from Next after this many rows; <0 = never
	pos       int
	opens     int
	closes    int
	open      bool
}

func (a *auditIter) Open() error {
	a.opens++
	if a.failOpen {
		return errBoom
	}
	a.pos, a.open = 0, true
	return nil
}

func (a *auditIter) Next() (storage.Tuple, bool, error) {
	if !a.open {
		return nil, false, ErrNotOpen
	}
	if a.failAfter >= 0 && a.pos >= a.failAfter {
		return nil, false, errBoom
	}
	if a.pos >= len(a.rows) {
		return nil, false, nil
	}
	t := a.rows[a.pos]
	a.pos++
	return t, true, nil
}

func (a *auditIter) Close() error { a.closes++; a.open = false; return nil }

// balanced reports whether every successful Open was matched by a
// Close (failed Opens hand nothing to the caller, so they owe none).
func (a *auditIter) balanced() bool {
	owed := a.opens
	if a.failOpen {
		owed = 0
	}
	return a.closes == owed
}

// auditBatch is the batch-native counterpart of auditIter. Unlike
// auditIter it is handed directly to the parallel exchange as a
// BatchSource, so — like the real morsel sources — it must serialise
// itself against concurrent worker claims.
type auditBatch struct {
	mu        sync.Mutex
	rows      []storage.Tuple
	failOpen  bool
	failAfter int // error once this many rows were served; <0 = never
	pos       int
	opens     int
	closes    int
	open      bool
	chunk     int
}

func (a *auditBatch) Open() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.opens++
	if a.failOpen {
		return errBoom
	}
	a.pos, a.open = 0, true
	return nil
}

func (a *auditBatch) NextBatch(b *Batch) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.open {
		return 0, ErrNotOpen
	}
	if a.failAfter >= 0 && a.pos >= a.failAfter {
		return 0, errBoom
	}
	b.Reset()
	n := a.chunk
	if n <= 0 {
		n = 2
	}
	for i := 0; i < n && a.pos < len(a.rows); i++ {
		b.Tuples = append(b.Tuples, a.rows[a.pos])
		a.pos++
	}
	return b.Len(), nil
}

func (a *auditBatch) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closes++
	a.open = false
	return nil
}

func (a *auditBatch) balanced() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	owed := a.opens
	if a.failOpen {
		owed = 0
	}
	return a.closes == owed
}

func auditRows(n int) []storage.Tuple {
	out := make([]storage.Tuple, n)
	for i := range out {
		out[i] = storage.Tuple{storage.IntValue(int64(i)), storage.StringValue("r")}
	}
	return out
}

// TestOpenErrorLeavesNothingHeld drives the batch adapter's Open
// through a failing input and asserts the operator holds no pooled
// batch and did not latch itself open.
func TestOpenErrorLeavesNothingHeld(t *testing.T) {
	t.Run("IteratorFromBatch", func(t *testing.T) {
		src := &auditBatch{failOpen: true, failAfter: -1}
		it := NewIteratorFromBatch(src)
		if err := it.Open(); !errors.Is(err, errBoom) {
			t.Fatalf("Open = %v, want errBoom", err)
		}
		if it.buf != nil {
			t.Fatal("failed Open stranded a pooled batch")
		}
		if _, _, err := it.Next(); !errors.Is(err, ErrNotOpen) {
			t.Fatalf("Next after failed Open = %v, want ErrNotOpen", err)
		}
		if !src.balanced() {
			t.Fatalf("input opens=%d closes=%d not balanced", src.opens, src.closes)
		}
	})
}

// TestMidStreamErrorClosesInput errors the input mid-stream under the
// serial Sort/TopK materialisers and the batch adapter, then
// asserts the input's Open/Close counts balance — the pattern the
// pooled batches and pinned pages both ride on.
func TestMidStreamErrorClosesInput(t *testing.T) {
	t.Run("Sort", func(t *testing.T) {
		src := &auditIter{rows: auditRows(10), failAfter: 4}
		s := NewSort(src, 0, false)
		if err := s.Open(); !errors.Is(err, errBoom) {
			t.Fatalf("Open = %v, want errBoom", err)
		}
		if !src.balanced() {
			t.Fatalf("input opens=%d closes=%d not balanced", src.opens, src.closes)
		}
	})
	t.Run("TopK", func(t *testing.T) {
		src := &auditIter{rows: auditRows(10), failAfter: 4}
		k := NewTopK(src, 0, false, 3)
		if err := k.Open(); !errors.Is(err, errBoom) {
			t.Fatalf("Open = %v, want errBoom", err)
		}
		if !src.balanced() {
			t.Fatalf("input opens=%d closes=%d not balanced", src.opens, src.closes)
		}
	})
	t.Run("IteratorFromBatchMidStream", func(t *testing.T) {
		src := &auditBatch{rows: auditRows(10), failAfter: 4, chunk: 2}
		it := NewIteratorFromBatch(src)
		_, err := Drain(it)
		if !errors.Is(err, errBoom) {
			t.Fatalf("Drain = %v, want errBoom", err)
		}
		if !src.balanced() {
			t.Fatalf("input opens=%d closes=%d not balanced", src.opens, src.closes)
		}
	})
}

// TestPinnedFramesBalancedAfterErrors runs real heap scans — the only
// operators that pin buffer-pool frames — through error paths and
// asserts the pool's pin gauge returns to zero, i.e. no scan path
// holds a frame across an error.
func TestPinnedFramesBalancedAfterErrors(t *testing.T) {
	db, hf := newHeap(t, "leak", 64)
	bm := db.Buffer()
	var rows []storage.Tuple
	for i := 0; i < 500; i++ {
		rows = append(rows, storage.Tuple{storage.IntValue(int64(i)), storage.StringValue("payload")})
	}
	load(t, db, hf, rows...)
	if got := bm.PinnedFrames(); got != 0 {
		t.Fatalf("baseline pins = %d, want 0", got)
	}

	// Serial sort over a heap scan.
	scan := NewHeapScan(hf.Blind())
	s := NewSort(NewFilter(scan, func(tu storage.Tuple) bool { return true }), 0, false)
	if err := s.Open(); err != nil {
		t.Fatalf("sort open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("sort close: %v", err)
	}
	if got := bm.PinnedFrames(); got != 0 {
		t.Fatalf("pins after serial sort = %d, want 0", got)
	}

	// Batch scan erroring mid-stream: abandon the iterator after the
	// error without a cooperative drain, then Close.
	proj := NewBatchHeapScan(hf.Blind())
	if err := proj.Open(); err != nil {
		t.Fatalf("batch open: %v", err)
	}
	b := GetBatch()
	if _, err := proj.NextBatch(b); err != nil {
		t.Fatalf("batch next: %v", err)
	}
	PutBatch(b)
	if err := proj.Close(); err != nil {
		t.Fatalf("batch close: %v", err)
	}
	if got := bm.PinnedFrames(); got != 0 {
		t.Fatalf("pins after abandoned batch scan = %d, want 0", got)
	}
}
