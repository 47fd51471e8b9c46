// Leak audit for operator error paths. Two invariants:
//
//  1. A source that fails — at its first claim or mid-stream — fails
//     the operator above it with its error, and no pooled batch stays
//     checked out.
//  2. A pipeline that errors mid-stream, or is abandoned, holds no
//     page pin: BufferManager.PinnedFrames() returns to
//     baseline.
//
// The audit instrument is erringSource, which serves one-row batches
// and then fails on demand.
package operators

import (
	"errors"
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

var errBoom = errors.New("boom")

// auditOps are the batch operators that consume a source to the end
// before returning, each run at two workers over src.
var auditOps = []struct {
	name string
	run  func(src BatchSource) error
}{
	{"Drain", func(src BatchSource) error {
		_, err := DrainParallelBatches(src, ParallelConfig{Workers: 2})
		return err
	}},
	{"Count", func(src BatchSource) error {
		_, err := Count(src)
		return err
	}},
	{"Sort", func(src BatchSource) error {
		rows, err := ParallelSortBatches(src, 0, false, nil, ParallelConfig{Workers: 2})
		if rows != nil {
			return errors.New("failed sort returned rows")
		}
		return err
	}},
	{"TopK", func(src BatchSource) error {
		_, err := ParallelTopKBatches(src, 0, false, nil, 3, ParallelConfig{Workers: 2})
		return err
	}},
	{"Aggregate", func(src BatchSource) error {
		_, err := ParallelHashAggregateBatches(src, 0, []AggSpec{{Kind: AggCount}}, nil, ParallelConfig{Workers: 2})
		return err
	}},
	{"Build", func(src BatchSource) error {
		_, _, err := ParallelBuildBatches(src, 0, ParallelConfig{Workers: 2}, nil)
		return err
	}},
}

// TestSourceErrorLeavesNothingHeld fails the source at its first claim
// and mid-stream under every materialiser: the error surfaces and no
// batch stays checked out.
func TestSourceErrorLeavesNothingHeld(t *testing.T) {
	for _, at := range []struct {
		name  string
		after int64
	}{{"FirstClaim", 0}, {"MidStream", 4}} {
		for _, op := range auditOps {
			t.Run(at.name+"/"+op.name, func(t *testing.T) {
				base := OutstandingBatches()
				err := op.run(&erringSource{after: at.after, err: errBoom})
				if !errors.Is(err, errBoom) {
					t.Fatalf("err = %v, want errBoom", err)
				}
				if got := OutstandingBatches(); got != base {
					t.Fatalf("outstanding batches = %d, want %d", got, base)
				}
			})
		}
	}
}

// TestPinnedFramesBalancedAfterErrors runs real heap scans — the only
// operators that pin pages — to completion and abandoned mid-stream,
// and asserts the page table's pin gauge returns to zero: no scan path
// holds a page between claims.
func TestPinnedFramesBalancedAfterErrors(t *testing.T) {
	db, hf := newHeap(t, "leak")
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
	if _, err := ParallelSortBatches(NewHeapBatches(hf.Blind(), nil, false), 0, false, nil, ParallelConfig{Workers: 2}); err != nil {
		t.Fatalf("sort: %v", err)
	}
	if got := bm.PinnedFrames(); got != 0 {
		t.Fatalf("pins after sort = %d, want 0", got)
	}

	// A scan abandoned after its first batch.
	b := GetBatch()
	if _, err := NewHeapBatches(hf.Blind(), nil, true).NextBatch(b); err != nil {
		t.Fatalf("batch next: %v", err)
	}
	PutBatch(b)
	if got := bm.PinnedFrames(); got != 0 {
		t.Fatalf("pins after abandoned batch scan = %d, want 0", got)
	}
}
