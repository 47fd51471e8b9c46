// Batch-at-a-time (vectorized) execution. A tuple-at-a-time (Volcano)
// interface pays one virtual Next() call, one bounds-checked type
// dispatch, and frequently one allocation per tuple; at millions of
// rows per second that interface tax dominates the actual work (the
// same boundary tax the paper charges the OS/DBMS split with, one
// layer down). Every operator here exchanges a reusable Batch of tuples
// instead, so the per-tuple cost collapses to a slice append, and heap
// sources decode whole pinned pages under one latch acquisition.
//
// Memory discipline: a Batch owns only its header slices, never the
// tuple values. Sources hand out tuples that stay valid after the batch
// is refilled — a page's shared decode image
// (storage.HeapView.ReadPage), a fetched or freshly built tuple,
// a stable slice — so consumers may retain individual tuples after the
// batch is recycled but must not modify them; only the []Tuple headers
// are reused. Batches are recycled through a sync.Pool.
package operators

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/adm-project/adm/internal/storage"
)

// DefaultBatchSize is the default tuples-per-batch granularity.
const DefaultBatchSize = 1024

// Batch is a reusable buffer of tuples. Tuples holds the current
// contents; capacity is retained across refills.
type Batch struct {
	Tuples []storage.Tuple
	// RIDs is where each of Tuples lives, index for index, when the
	// source carries them (IndexScan always, HeapBatches when asked: the
	// DML row search); empty otherwise. Filters compact it alongside
	// Tuples.
	RIDs []storage.RID
	// pass is the worker's run of the filter kernel its heap source
	// reads pages through: the reused selection vector (positions of a
	// page image's rows that survive the conjuncts so far) and the
	// worker's selectivity tallies. It lives on the batch so its
	// capacity is reused across refills.
	pass kernelPass
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.Tuples) }

// Reset empties the batch, keeping capacity.
func (b *Batch) Reset() { b.Tuples, b.RIDs = b.Tuples[:0], b.RIDs[:0] }

var batchPool = sync.Pool{
	New: func() any { return &Batch{Tuples: make([]storage.Tuple, 0, DefaultBatchSize)} },
}

// outstandingBatches counts Get-without-Put batches. The GC may drop
// pooled batches at any time, so the pool length itself proves
// nothing; this counter is the leak oracle the connection-fault
// matrix asserts returns to its baseline after every crash and
// disconnect scenario.
var outstandingBatches atomic.Int64

// OutstandingBatches reports the number of pooled batches currently
// checked out (GetBatch minus PutBatch). Quiescent engines owe zero.
func OutstandingBatches() int64 { return outstandingBatches.Load() }

// GetBatch takes a recycled batch from the pool (empty, capacity
// retained from its previous life).
func GetBatch() *Batch {
	outstandingBatches.Add(1)
	b := batchPool.Get().(*Batch)
	b.Reset()
	return b
}

// PutBatch returns a batch to the pool. The caller must not touch the
// batch afterwards; tuples previously read from it remain valid.
func PutBatch(b *Batch) {
	outstandingBatches.Add(-1)
	b.Reset()
	b.pass.k = nil // unpublished tallies are dropped with the kernel
	batchPool.Put(b)
}

// Predicate tests a tuple.
type Predicate func(storage.Tuple) bool

// filterInPlace compacts b to the tuples satisfying pred, and their
// RIDs when b carries them.
func filterInPlace(b *Batch, pred Predicate) int {
	rids := len(b.RIDs) == len(b.Tuples)
	k := 0
	for i, t := range b.Tuples {
		if pred(t) {
			b.Tuples[k] = t
			if rids {
				b.RIDs[k] = b.RIDs[i]
			}
			k++
		}
	}
	b.Tuples = b.Tuples[:k]
	if rids {
		b.RIDs = b.RIDs[:k]
	}
	return k
}

// ProjectTuples appends cols-projections of rows to dst, allocating
// all output values from a single arena. The projected tuples own
// their memory (they stay valid when rows' batch is recycled).
func ProjectTuples(dst []storage.Tuple, rows []storage.Tuple, cols []int) ([]storage.Tuple, error) {
	arena := make(storage.Tuple, 0, len(rows)*len(cols))
	for _, t := range rows {
		start := len(arena)
		for _, c := range cols {
			if c < 0 || c >= len(t) {
				return dst, fmt.Errorf("operators: project column %d out of range (%d)", c, len(t))
			}
			arena = append(arena, t[c])
		}
		dst = append(dst, arena[start:len(arena):len(arena)])
	}
	return dst, nil
}
