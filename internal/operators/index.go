// Package operators implements the data-operator layer of the
// architecture in two halves:
//
//   - the batch pipeline the query engine runs every SELECT and every
//     DML row search on. Its operators speak one protocol, BatchSource:
//     heap and index scans, filters (vectorized kernels or a boxed
//     predicate) and the index nested-loop join each hand whole batches
//     to whichever worker goroutine claims the next one, and the
//     materialisers above them (partitioned hash build/probe, grouped
//     aggregation, parallel sort and Top-K) consume a source batch by
//     batch — each a fine-grained component in the paper's sense; and
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
	"sync/atomic"

	"github.com/adm-project/adm/internal/storage"
)

// IndexScan serves the tuples whose indexed column lies in [Lo,Hi],
// fetched through a heap view, with their RIDs (Batch.RIDs). The
// postings are collected once, at construction; workers then claim
// runs of them from an atomic cursor and fetch each run in the
// claiming worker, so the scan is as shareable as a heap scan.
type IndexScan struct {
	file *storage.HeapView
	rids []storage.RID
	size int
	next atomic.Int64
}

// NewIndexScan collects index's postings in [lo,hi] for a scan of file
// in runs of size (<= 0 means DefaultBatchSize).
func NewIndexScan(file *storage.HeapView, index *storage.BTree, lo, hi storage.Value, size int) *IndexScan {
	if size <= 0 {
		size = DefaultBatchSize
	}
	s := &IndexScan{file: file, size: size}
	index.Range(lo, hi, func(_ storage.Value, rid storage.RID) bool {
		s.rids = append(s.rids, rid)
		return true
	})
	if f, ok := hi.AsFloat(); ok && !math.IsNaN(f) && index.HasNaN() {
		// NaN equals every number to a predicate, but the index files it last.
		s.rids = append(s.rids, index.Search(storage.FloatValue(math.NaN()))...)
	}
	return s
}

// NextBatch implements BatchSource: the tuples of one claimed run of
// postings that read as found, and their RIDs.
func (s *IndexScan) NextBatch(b *Batch) (int, error) {
	b.Reset()
	for {
		end := s.next.Add(int64(s.size))
		start := end - int64(s.size)
		if start >= int64(len(s.rids)) {
			return 0, nil
		}
		for _, rid := range s.rids[start:min(end, int64(len(s.rids)))] {
			t, err := s.file.Get(rid)
			if errors.Is(err, storage.ErrNotFound) {
				continue // deleted since the postings were read, or outside the snapshot
			}
			if err != nil {
				return 0, err
			}
			b.Tuples = append(b.Tuples, t)
			b.RIDs = append(b.RIDs, rid)
		}
		if len(b.Tuples) > 0 {
			return len(b.Tuples), nil
		}
	}
}
