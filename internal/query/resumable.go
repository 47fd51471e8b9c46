package query

import (
	"encoding/json"
	"fmt"
	"strings"

	"github.com/adm-project/adm/internal/storage"
)

// This file implements the paper's §1 requirement that "the system
// must be able to cope with units failing — perhaps mid way through
// answering a query (and being replaced with minimal maintenance or
// the whole processing 'jumping' to another device to
// continue/finish)": a ResumableAgg is an aggregation query whose
// execution state (scan position + partial aggregates) is a
// component.Stateful — the State Manager can checkpoint it at safe
// points, and after the hosting device dies the snapshot restores
// onto another device's replica and the query finishes there.
//
// Resumability requires both replicas to enumerate rows in the same
// order; heap files built from the same insert sequence do (page,
// slot) order, which the restore path verifies with a row checksum.

// ResumableAgg incrementally computes COUNT/SUM/MIN/MAX/AVG of one
// column with an optional predicate.
type ResumableAgg struct {
	table *Table
	col   int
	pred  func(storage.Tuple) bool

	rows []storage.Tuple // materialised snapshot in scan order

	// execution state (the checkpoint payload)
	pos      int
	count    int64
	sum      float64
	min, max *float64
	checksum uint64
}

// NewResumableAgg starts a resumable aggregation over table.col with
// an optional WHERE conjunction.
func NewResumableAgg(cat *Catalog, table, col string, where []Pred) (*ResumableAgg, error) {
	t, err := cat.Table(table)
	if err != nil {
		return nil, err
	}
	ci, ok := t.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, table, col)
	}
	var pred func(storage.Tuple) bool
	if len(where) > 0 {
		pred, err = compilePreds(tableSchema(table, t), where)
		if err != nil {
			return nil, err
		}
	}
	// The rows one snapshot sees; reading them is all the transaction
	// does, so it rolls back.
	snap := cat.db.Txns().Begin()
	rows, err := snap.View(t.Heap).All()
	if rbErr := snap.Rollback(); err == nil {
		err = rbErr
	}
	if err != nil {
		return nil, err
	}
	return &ResumableAgg{table: t, col: ci, pred: pred, rows: rows}, nil
}

// Remaining reports rows not yet consumed.
func (q *ResumableAgg) Remaining() int { return len(q.rows) - q.pos }

// Done reports completion.
func (q *ResumableAgg) Done() bool { return q.pos >= len(q.rows) }

// Position returns rows consumed so far.
func (q *ResumableAgg) Position() int { return q.pos }

// Step consumes up to n rows; it returns the number actually
// consumed. Each consumed row folds into the running aggregates and
// the order checksum.
func (q *ResumableAgg) Step(n int) int {
	done := 0
	for ; done < n && q.pos < len(q.rows); done++ {
		row := q.rows[q.pos]
		q.checksum = q.checksum*1099511628211 + rowHash(row)
		q.pos++
		if q.pred != nil && !q.pred(row) {
			continue
		}
		v := row[q.col]
		if v.IsNull() {
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			continue
		}
		q.count++
		q.sum += f
		if q.min == nil || f < *q.min {
			m := f
			q.min = &m
		}
		if q.max == nil || f > *q.max {
			m := f
			q.max = &m
		}
	}
	return done
}

func rowHash(t storage.Tuple) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t {
		for _, b := range []byte(v.String()) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		h = (h ^ uint64(v.Kind)) * 1099511628211
	}
	return h
}

// AggResult is the final (or running) aggregate view.
type AggResult struct {
	Count int64
	Sum   float64
	Avg   float64
	Min   float64
	Max   float64
	// Valid is false when no qualifying rows were seen yet.
	Valid bool
}

// Result returns the current aggregates.
func (q *ResumableAgg) Result() AggResult {
	r := AggResult{Count: q.count, Sum: q.sum}
	if q.count > 0 {
		r.Avg = q.sum / float64(q.count)
		r.Min, r.Max = *q.min, *q.max
		r.Valid = true
	}
	return r
}

// checkpoint is the serialised execution state.
type checkpoint struct {
	Pos      int      `json:"pos"`
	Count    int64    `json:"count"`
	Sum      float64  `json:"sum"`
	Min      *float64 `json:"min,omitempty"`
	Max      *float64 `json:"max,omitempty"`
	Checksum uint64   `json:"checksum"`
	Table    string   `json:"table"`
	Col      int      `json:"col"`
}

// CaptureState implements component.Stateful: the safe-point snapshot
// the State Manager stores.
func (q *ResumableAgg) CaptureState() ([]byte, error) {
	return json.Marshal(checkpoint{
		Pos: q.pos, Count: q.count, Sum: q.sum, Min: q.min, Max: q.max,
		Checksum: q.checksum, Table: q.table.Name, Col: q.col,
	})
}

// RestoreState implements component.Stateful: reinstate a snapshot
// taken on another device. The replica's prefix is re-hashed and must
// match the snapshot's checksum — detecting divergent replicas before
// producing a wrong answer.
func (q *ResumableAgg) RestoreState(b []byte) error {
	var cp checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return fmt.Errorf("query: restore: %w", err)
	}
	if !strings.EqualFold(cp.Table, q.table.Name) {
		return fmt.Errorf("query: restore: snapshot is for table %q, not %q", cp.Table, q.table.Name)
	}
	if cp.Col != q.col {
		return fmt.Errorf("query: restore: snapshot aggregates column %d, not %d", cp.Col, q.col)
	}
	if cp.Pos > len(q.rows) {
		return fmt.Errorf("query: restore: snapshot position %d beyond replica size %d", cp.Pos, len(q.rows))
	}
	var sum uint64
	for i := 0; i < cp.Pos; i++ {
		sum = sum*1099511628211 + rowHash(q.rows[i])
	}
	if sum != cp.Checksum {
		return fmt.Errorf("query: restore: replica prefix diverges from snapshot (checksum %x != %x)", sum, cp.Checksum)
	}
	q.pos = cp.Pos
	q.count = cp.Count
	q.sum = cp.Sum
	q.min = cp.Min
	q.max = cp.Max
	q.checksum = cp.Checksum
	return nil
}
