// Batch-at-a-time (vectorized) execution. The Volcano interface pays
// one virtual Next() call, one bounds-checked type dispatch, and
// frequently one allocation per tuple; at millions of rows per second
// that interface tax dominates the actual work (the same boundary tax
// the paper charges the OS/DBMS split with, one layer down). The batch
// path amortises it: operators exchange a reusable Batch of tuples, so
// the per-tuple cost collapses to a slice append, and sources decode
// whole pinned pages under one latch acquisition.
//
// Memory discipline: a Batch owns only its header slice, never the
// tuple values. Sources produce tuples whose values are arena-decoded
// (storage.Page.TuplesInto) or otherwise stable, so consumers may
// retain individual tuples after the batch is recycled; only the
// []Tuple headers are reused. Batches are recycled through a
// sync.Pool.
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
	// Sel is the selection-vector scratch used by vectorized filter
	// kernels (FilterKernel.Apply): row indexes into Tuples that
	// survive the conjuncts so far. It is working space owned by the
	// batch purely so its capacity is reused across refills — between
	// operator calls it is always empty.
	Sel []int32
	// RIDs is where each of Tuples lives, index for index, when the scan
	// was asked for that (BatchHeapScan.WithRIDs: DML); empty otherwise.
	RIDs []storage.RID
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.Tuples) }

// Reset empties the batch, keeping capacity.
func (b *Batch) Reset() { b.Tuples, b.Sel, b.RIDs = b.Tuples[:0], b.Sel[:0], b.RIDs[:0] }

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
	batchPool.Put(b)
}

// BatchIterator is the vectorized counterpart of Iterator. NextBatch
// resets and refills b, returning the number of tuples produced; 0
// with a nil error means exhausted. The same Batch is normally passed
// back on every call so its buffer is reused.
type BatchIterator interface {
	// Open prepares the operator tree.
	Open() error
	// NextBatch refills b and returns the tuple count; 0 = exhausted.
	NextBatch(b *Batch) (int, error)
	// Close releases resources; the iterator may be reopened.
	Close() error
}

// ---------------------------------------------------------------------------
// Batch -> Volcano: a shared batch source feeding a scalar consumer
// (SourceIterator). The other direction is IterBatches.

// SourceIterator drains a BatchSource as a Volcano iterator, from
// wherever the source's cursor stands — how the remainder of an aborted
// build scan streams through an IndexNLJoin. Its buffer is private, not
// pooled, so an iterator abandoned mid-stream owes the pool nothing.
type SourceIterator struct {
	src BatchSource
	buf Batch
	pos int
}

// NewSourceIterator wraps src.
func NewSourceIterator(src BatchSource) *SourceIterator { return &SourceIterator{src: src} }

// Open implements Iterator; the source is already positioned.
func (s *SourceIterator) Open() error { return nil }

// Next implements Iterator.
func (s *SourceIterator) Next() (storage.Tuple, bool, error) {
	for s.pos >= len(s.buf.Tuples) {
		n, err := s.src.NextBatch(&s.buf)
		if err != nil || n == 0 {
			return nil, false, err
		}
		s.pos = 0
	}
	s.pos++
	return s.buf.Tuples[s.pos-1], true, nil
}

// Close implements Iterator.
func (s *SourceIterator) Close() error { return nil }

// ---------------------------------------------------------------------------
// Batch-native sources and transforms.

// BatchHeapScan reads a heap file page-at-a-time: each NextBatch
// decodes one pinned page into the caller's batch under a single latch
// acquisition (storage.HeapView.PageTuplesInto) — the batch-native
// scan. The page list is snapshotted at Open, matching HeapScan's
// semantics; reopening re-snapshots.
//
// With a Kernel attached the scan fuses filtering: each page's zone
// map (snapshotted at Open alongside the page list) is consulted
// BEFORE the page is pinned or decoded, and surviving pages are
// compacted through the kernel in place — the scan+filter pipeline the
// paper's database machines pushed to the disk head, here pushed below
// the batch boundary.
type BatchHeapScan struct {
	File *storage.HeapView
	// Kernel, when non-nil, fuses predicate evaluation and zone-map
	// page pruning into the scan.
	Kernel *FilterKernel
	// WithRIDs makes every batch carry its tuples' RIDs (Batch.RIDs),
	// read from the same image of the page as the tuples.
	WithRIDs bool
	pages    []storage.PageID
	zones    [][]storage.ColZone
	idx      int
	open     bool
}

// NewBatchHeapScan scans file.
func NewBatchHeapScan(file *storage.HeapView) *BatchHeapScan {
	return &BatchHeapScan{File: file}
}

// Open implements BatchIterator.
func (s *BatchHeapScan) Open() error {
	s.pages = s.File.PageIDs()
	s.zones = nil
	if s.Kernel != nil {
		s.zones = s.File.PageZones(s.pages)
	}
	s.idx = 0
	s.open = true
	return nil
}

// NextBatch implements BatchIterator; one batch is one page (post
// filter, when a kernel is fused).
func (s *BatchHeapScan) NextBatch(b *Batch) (int, error) {
	if !s.open {
		return 0, ErrNotOpen
	}
	for s.idx < len(s.pages) {
		id := s.pages[s.idx]
		if s.Kernel != nil && s.idx < len(s.zones) {
			if !s.Kernel.MayMatchPage(s.zones[s.idx]) {
				s.Kernel.countPage(true)
				s.idx++
				continue
			}
		}
		s.idx++
		var err error
		if s.WithRIDs {
			b.Tuples, b.RIDs, err = s.File.PageRowsInto(id, b.Tuples[:0], b.RIDs[:0])
		} else {
			b.Tuples, err = s.File.PageTuplesInto(id, b.Tuples[:0])
		}
		if err != nil {
			return 0, err
		}
		if s.Kernel != nil {
			s.Kernel.countPage(false)
			if s.Kernel.Apply(b) > 0 {
				return len(b.Tuples), nil
			}
			continue
		}
		if len(b.Tuples) > 0 {
			return len(b.Tuples), nil
		}
	}
	b.Reset()
	return 0, nil
}

// Close implements BatchIterator.
func (s *BatchHeapScan) Close() error { s.open, s.pages, s.zones = false, nil, nil; return nil }

// filterInPlace compacts b to the tuples satisfying pred.
func filterInPlace(b *Batch, pred Predicate) int {
	k := 0
	for _, t := range b.Tuples {
		if pred(t) {
			b.Tuples[k] = t
			k++
		}
	}
	b.Tuples = b.Tuples[:k]
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
