package query

import (
	"encoding/json"
	"fmt"
	"strings"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
)

// ResumableAgg is the paper's §1 "units failing — perhaps mid way
// through answering a query (and ... the whole processing 'jumping' to
// another device to continue/finish)": COUNT/SUM/MIN/MAX/AVG of one
// column with an optional predicate, whose execution state (page
// position + partial aggregates) is a component.Stateful. The State
// Manager checkpoints it at safe points; after the hosting device dies
// the checkpoint restores onto another device's replica, which must
// lay its rows out on the same pages in the same order (heap files
// built from the same insert sequence do; a checksum of the consumed
// rows verifies it), and the query finishes there. It reads a page at
// a time through the one page read and folds the rows the WHERE keeps
// by the SELECT pipeline's own fold (operators.FoldGlobal), so its
// answer is SQL's.
//
// It reads one snapshot: NewResumableAgg begins a read-only
// transaction, takes the heap's page list and rolls the transaction
// back at once, and its view keeps reading that transaction's
// snapshot. That is sound only while no committed version the snapshot
// sees is reclaimed: a vacuum's horizon must account for every live
// ResumableAgg.
type ResumableAgg struct {
	table *Table
	col   int
	aggs  []operators.AggSpec // COUNT, SUM, MIN, MAX of col
	pred  func(storage.Tuple) bool
	view  *storage.HeapView
	pages []storage.PageID
	err   error // a failed page read: the aggregation stops there

	// execution state (the checkpoint payload)
	page, rows int           // pages and rows consumed
	state      storage.Tuple // FoldGlobal's state
	checksum   uint64        // FNV-1a over the consumed rows' record encodings
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
	snap := cat.db.Txns().Begin()
	view := snap.View(t.Heap)
	if err := snap.Rollback(); err != nil {
		return nil, err
	}
	aggs := []operators.AggSpec{{Kind: operators.AggCount, Col: ci, NonNull: true},
		{Kind: operators.AggSum, Col: ci}, {Kind: operators.AggMin, Col: ci}, {Kind: operators.AggMax, Col: ci}}
	return &ResumableAgg{table: t, col: ci, aggs: aggs, pred: pred, view: view, pages: view.PageIDs(),
		checksum: fnvOffset}, nil
}

const fnvOffset = 14695981039346656037 // FNV-1a's 64-bit offset basis

// Done reports completion: every page consumed, or a page read failed
// (CaptureState then returns the failure).
func (q *ResumableAgg) Done() bool { return q.page >= len(q.pages) || q.err != nil }

// Position returns rows consumed so far.
func (q *ResumableAgg) Position() int { return q.rows }

// Step consumes whole pages until it has consumed at least n rows or
// none are left, and returns the number consumed: a step is
// page-granular, so it may consume more than n. Every consumed row
// extends the checksum; the ones the WHERE keeps fold into the
// aggregates.
func (q *ResumableAgg) Step(n int) int {
	done := 0
	var keep []storage.Tuple
	for done < n && !q.Done() {
		var ts []storage.Tuple
		if ts, q.checksum, q.err = q.readPage(q.page, q.checksum); q.err != nil {
			break
		}
		for _, t := range ts {
			if q.pred == nil || q.pred(t) {
				keep = append(keep, t)
			}
		}
		q.page++
		q.rows += len(ts)
		done += len(ts)
	}
	q.state, _, _ = operators.FoldGlobal(q.aggs, q.state, keep) // q.state has q.aggs' shape
	return done
}

// readPage reads page i of the snapshot and extends sum by each of its
// rows' record encodings. The encoding covers no record header, whose
// transaction ids differ between replicas.
func (q *ResumableAgg) readPage(i int, sum uint64) ([]storage.Tuple, uint64, error) {
	ts, err := q.view.PageTuplesInto(q.pages[i], nil)
	for _, t := range ts {
		for _, b := range storage.EncodeTuple(t) {
			sum = (sum ^ uint64(b)) * 1099511628211
		}
	}
	return ts, sum, err
}

// AggResult is the final (or running) aggregate view.
type AggResult struct {
	Count int64
	Sum   float64
	Avg   float64
	Min   float64
	Max   float64
	// Valid is false when no qualifying rows were seen yet, or a page
	// read failed.
	Valid bool
}

// Result returns the current aggregates.
func (q *ResumableAgg) Result() AggResult {
	_, v, _ := operators.FoldGlobal(q.aggs, q.state, nil) // q.state has q.aggs' shape
	r := AggResult{Count: v[0].Int, Sum: v[1].Float, Valid: v[0].Int > 0 && q.err == nil}
	if r.Valid {
		r.Avg = r.Sum / float64(r.Count)
		r.Min, _ = v[2].AsFloat()
		r.Max, _ = v[3].AsFloat()
	}
	return r
}

// checkpoint is the serialised execution state.
type checkpoint struct {
	Page     int    `json:"page"`
	Checksum uint64 `json:"checksum"`
	State    []byte `json:"state"` // FoldGlobal's state, record-encoded
	Table    string `json:"table"`
	Col      int    `json:"col"`
}

// CaptureState implements component.Stateful: the safe-point snapshot
// the State Manager stores.
func (q *ResumableAgg) CaptureState() ([]byte, error) {
	if q.err != nil {
		return nil, fmt.Errorf("query: capture: %w", q.err)
	}
	return json.Marshal(checkpoint{Page: q.page, Checksum: q.checksum,
		State: storage.EncodeTuple(q.state), Table: q.table.Name, Col: q.col})
}

// RestoreState implements component.Stateful: reinstate a snapshot
// taken on another device. The replica's prefix pages are re-read and
// their checksum must match the snapshot's — detecting divergent
// replicas before producing a wrong answer.
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
	if cp.Page < 0 || cp.Page > len(q.pages) {
		return fmt.Errorf("query: restore: snapshot position page %d beyond replica size %d pages", cp.Page, len(q.pages))
	}
	state, err := storage.DecodeTuple(cp.State)
	if err == nil {
		_, _, err = operators.FoldGlobal(q.aggs, state, nil)
	}
	if err != nil {
		return fmt.Errorf("query: restore: %w", err)
	}
	rows, sum := 0, uint64(fnvOffset)
	for i := 0; i < cp.Page; i++ {
		var ts []storage.Tuple
		if ts, sum, err = q.readPage(i, sum); err != nil {
			return fmt.Errorf("query: restore: %w", err)
		}
		rows += len(ts)
	}
	if sum != cp.Checksum {
		return fmt.Errorf("query: restore: replica prefix diverges from snapshot (checksum %x != %x)", sum, cp.Checksum)
	}
	q.page, q.rows, q.state, q.checksum, q.err = cp.Page, rows, state, cp.Checksum, nil
	return nil
}
