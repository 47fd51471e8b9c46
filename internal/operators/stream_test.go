package operators

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

// overlapCheck is a RowEmitter that counts what it is handed and fails
// the test if two calls ever overlap.
type overlapCheck struct {
	t        *testing.T
	inFlight atomic.Int32
	seen     map[int64]bool
	calls    int
	fail     error // returned once calls reaches failAt
	failAt   int
}

func (o *overlapCheck) EmitRows(rows []storage.Tuple) error {
	if o.inFlight.Add(1) != 1 {
		o.t.Error("two EmitRows calls overlap")
	}
	defer o.inFlight.Add(-1)
	for _, r := range rows {
		if o.seen[r[0].Int] {
			o.t.Errorf("row %d emitted twice", r[0].Int)
		}
		o.seen[r[0].Int] = true
	}
	if o.calls++; o.fail != nil && o.calls == o.failAt {
		return o.fail
	}
	return nil
}

// TestStreamParallelBatches: a stream emits every row exactly once, one
// call at a time, at any worker count and batch size; with a limit it
// emits exactly min(limit, rows) — the drain no longer returns a few
// more for its caller to cut — and an emitter's error ends the stream
// as its error, with every pooled batch returned.
func TestStreamParallelBatches(t *testing.T) {
	const n = 500
	tuples := make([]storage.Tuple, n)
	for i := range tuples {
		tuples[i] = storage.Tuple{storage.IntValue(int64(i))}
	}
	batches := OutstandingBatches()
	for _, workers := range []int{1, 2, 4, 8} {
		for _, size := range []int{1, 7, 64} {
			for _, limit := range []int{0, 1, 5, 64, 499, 500, 1000} {
				label := fmt.Sprintf("workers=%d size=%d limit=%d", workers, size, limit)
				o := &overlapCheck{t: t, seen: map[int64]bool{}}
				cfg := ParallelConfig{Workers: workers, Limit: limit}
				if err := StreamParallelBatches(NewSliceBatches(tuples, size), cfg, o); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := n
				if limit > 0 {
					want = min(limit, n)
				}
				if len(o.seen) != want {
					t.Fatalf("%s: emitted %d rows, want %d", label, len(o.seen), want)
				}
				got, err := DrainParallelBatches(NewSliceBatches(tuples, size), cfg)
				if err != nil || len(got) != want {
					t.Fatalf("%s: drained %d rows (err %v), want %d", label, len(got), err, want)
				}
			}
		}
		boom := errors.New("sink failed")
		o := &overlapCheck{t: t, seen: map[int64]bool{}, fail: boom, failAt: 3}
		err := StreamParallelBatches(NewSliceBatches(tuples, 10), ParallelConfig{Workers: workers}, o)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: stream err = %v, want the emitter's", workers, err)
		}
	}
	if b := OutstandingBatches(); b != batches {
		t.Fatalf("%d pooled batches outstanding, want %d", b, batches)
	}
}
