package operators

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/adm-project/adm/internal/storage"
)

// Per-statement resource controls for the parallel pipelines: a
// cooperative Cancel hook (deadlines, client disconnects) and a
// MemBudget metering materialised bytes. Both ride the existing
// failFlag protocol — a tripped control latches an error exactly like
// a source error, every worker drains at the phase barrier, and the
// statement fails cleanly with all pooled batches returned.

// ErrMemBudget reports a statement that materialised more bytes than
// its memory quota allows. The statement is cancelled cooperatively;
// the session survives.
var ErrMemBudget = errors.New("operators: statement memory budget exceeded")

// MemBudget meters the bytes a statement materialises across every
// parallel phase (drained scan output, hash-table build sides, probe
// output arenas, sort runs). It is an approximation — value headers
// plus string payloads — not an allocator: the point is to fail a
// runaway statement at a bounded multiple of the quota, not to
// account exactly. Safe for concurrent use; a nil *MemBudget meters
// nothing.
type MemBudget struct {
	limit int64
	used  atomic.Int64
}

// NewMemBudget builds a budget of limit bytes; limit <= 0 means
// unlimited (Charge never fails but still counts).
func NewMemBudget(limit int64) *MemBudget {
	return &MemBudget{limit: limit}
}

// Charge adds n bytes, failing with ErrMemBudget once the total
// exceeds the limit. The charge is recorded even when it overflows,
// so every later charge fails too, reporting how far past the quota
// the statement got.
func (m *MemBudget) Charge(n int64) error {
	if m == nil {
		return nil
	}
	used := m.used.Add(n)
	if m.limit > 0 && used > m.limit {
		return fmt.Errorf("%w: %d of %d bytes", ErrMemBudget, used, m.limit)
	}
	return nil
}

// valueBytes approximates the resident size of one storage.Value
// header (kind + int64 + float64 + string header + bool, padded).
const valueBytes = 48

// valsBytes approximates the resident bytes of a value slice.
func valsBytes(vals []storage.Value) int64 {
	n := int64(len(vals)) * valueBytes
	for i := range vals {
		n += int64(len(vals[i].Str))
	}
	return n
}

// TupleBytes approximates the resident bytes of a tuple slice (the
// unit MemBudget charges in).
func TupleBytes(ts []storage.Tuple) int64 {
	var n int64
	for _, t := range ts {
		n += valsBytes(t)
	}
	return n
}

// interrupted polls the statement's cooperative Cancel hook; a non-nil
// cancel error latches into fail and stops the phase exactly like a
// source error. Workers call it once per claimed batch.
func (c ParallelConfig) interrupted(fail *failFlag) bool {
	if c.Cancel == nil {
		return false
	}
	if err := c.Cancel(); err != nil {
		fail.set(err)
		return true
	}
	return false
}

// charge meters materialised tuples against the budget, latching
// ErrMemBudget into fail on overflow.
func (c ParallelConfig) charge(fail *failFlag, ts []storage.Tuple) bool {
	if c.Budget == nil {
		return false
	}
	if err := c.Budget.Charge(TupleBytes(ts)); err != nil {
		fail.set(err)
		return true
	}
	return false
}

// chargeVals is charge over a flat value arena (probe output).
func (c ParallelConfig) chargeVals(fail *failFlag, vals []storage.Value) bool {
	if c.Budget == nil {
		return false
	}
	if err := c.Budget.Charge(valsBytes(vals)); err != nil {
		fail.set(err)
		return true
	}
	return false
}
