// Leak audit for operator error paths. Two invariants:
//
//  1. An input that fails — at Open or mid-stream — is closed exactly
//     as often as it was opened, and the operator above it returns
//     the error with no pooled batch still checked out.
//  2. A pipeline that errors mid-stream still releases every pinned
//     buffer-pool frame once the root is closed: after Close on any
//     error path, BufferManager.PinnedFrames() returns to baseline.
//
// The audit instrument is a Volcano test iterator that counts
// Open/Close calls and fails on demand at any point in the stream;
// the batch operators reach it through IterBatches.
package operators

import (
	"errors"
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

func auditRows(n int) []storage.Tuple {
	out := make([]storage.Tuple, n)
	for i := range out {
		out[i] = storage.Tuple{storage.IntValue(int64(i)), storage.StringValue("r")}
	}
	return out
}

// auditOps are the batch operators that consume a source to the end
// before returning, each run at two workers over src.
var auditOps = []struct {
	name string
	run  func(src BatchSource) error
}{
	{"Sort", func(src BatchSource) error {
		m, err := ParallelSortBatches(src, 0, false, nil, ParallelConfig{Workers: 2})
		if m != nil {
			return errors.New("failed sort returned an iterator")
		}
		return err
	}},
	{"TopK", func(src BatchSource) error {
		_, err := ParallelTopKBatches(src, 0, false, nil, 3, ParallelConfig{Workers: 2})
		return err
	}},
}

// requireAudit checks invariant 1 after an operator ran over src.
func requireAudit(t *testing.T, err error, src *auditIter, batches int64) {
	t.Helper()
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if !src.balanced() {
		t.Fatalf("input opens=%d closes=%d not balanced", src.opens, src.closes)
	}
	if got := OutstandingBatches(); got != batches {
		t.Fatalf("outstanding batches = %d, want %d", got, batches)
	}
}

// TestOpenErrorLeavesNothingHeld fails the input's Open under the
// Volcano-to-batch adapter and the materialisers above it: the error
// surfaces, no batch stays checked out, and the adapter does not
// retry the Open on the next claim.
func TestOpenErrorLeavesNothingHeld(t *testing.T) {
	t.Run("IterBatches", func(t *testing.T) {
		base := OutstandingBatches()
		src := &auditIter{failOpen: true, failAfter: -1}
		ib := NewIterBatches(src, 4)
		b := GetBatch()
		n, err := ib.NextBatch(b)
		if n != 0 || b.Len() != 0 {
			t.Fatalf("failed Open served %d rows", b.Len())
		}
		if n, nerr := ib.NextBatch(b); n != 0 || nerr != nil || src.opens != 1 {
			t.Fatalf("claim after failed Open = %d, %v with %d opens; want 0, nil, 1", n, nerr, src.opens)
		}
		PutBatch(b)
		requireAudit(t, err, src, base)
	})
	for _, op := range auditOps {
		t.Run(op.name, func(t *testing.T) {
			base := OutstandingBatches()
			src := &auditIter{failOpen: true, failAfter: -1}
			requireAudit(t, op.run(NewIterBatches(src, 2)), src, base)
		})
	}
}

// TestMidStreamErrorClosesInput errors the input mid-stream under the
// parallel Sort/Top-K materialisers and a parallel drain of the
// adapter, then asserts the input's Open/Close counts balance — the
// pattern the pooled batches and pinned pages both ride on.
func TestMidStreamErrorClosesInput(t *testing.T) {
	for _, op := range auditOps {
		t.Run(op.name, func(t *testing.T) {
			base := OutstandingBatches()
			src := &auditIter{rows: auditRows(10), failAfter: 4}
			requireAudit(t, op.run(NewIterBatches(src, 2)), src, base)
		})
	}
	t.Run("IterBatchesMidStream", func(t *testing.T) {
		base := OutstandingBatches()
		src := &auditIter{rows: auditRows(10), failAfter: 4}
		_, err := DrainParallelBatches(NewIterBatches(src, 2), ParallelConfig{Workers: 2})
		requireAudit(t, err, src, base)
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

	// Sort over a heap scan.
	m, err := ParallelSortBatches(NewHeapBatches(hf.Blind()), 0, false, nil, ParallelConfig{Workers: 2})
	if err != nil {
		t.Fatalf("sort: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("sort close: %v", err)
	}
	if got := bm.PinnedFrames(); got != 0 {
		t.Fatalf("pins after sort = %d, want 0", got)
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
