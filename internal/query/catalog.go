// Package query implements the relational query engine that runs on
// the storage substrate: a SQL subset (SELECT-PROJECT-JOIN with
// aggregation and DML), a cost-based optimiser driven by catalog
// statistics, a Volcano executor over the operators package, and the
// Scenario 3 machinery — mid-query re-optimisation at safe points
// when the statistics the pre-optimiser trusted turn out wrong
// ("the statistics provided by the metadata are not quite accurate
// enough for the pre-optimisor to build the optimal plan").
package query

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
)

// ColumnType is a declared column type.
type ColumnType int

// Column types.
const (
	TInt ColumnType = iota
	TFloat
	TString
	TBool
)

func (t ColumnType) String() string {
	return [...]string{"INT", "FLOAT", "STRING", "BOOL"}[t]
}

// Column is one table column.
type Column struct {
	Name string
	Type ColumnType
}

// TableStats is what the optimiser believes about a table. It is
// updated only by Analyze — never automatically — so it can drift
// from reality, which is exactly the wedge Scenario 3 drives in.
type TableStats struct {
	Rows     int
	Distinct map[string]int // per column
}

// Table is a stored relation: schema, heap file, secondary indexes.
//
// Lock order: Catalog.mu (when held at all) strictly before Table.mu.
// Table.mu guards Stats and the Indexes map; both are replaced, never
// mutated in place, so snapshot accessors hand out values that stay
// valid after the lock drops. Name/Cols/Heap are immutable after
// CreateTable.
type Table struct {
	Name string
	Cols []Column
	Heap *storage.HeapFile

	mu      sync.RWMutex
	Indexes map[string]*storage.BTree // by column name; guarded by mu
	Stats   TableStats                // guarded by mu
}

// StatsSnapshot returns the current statistics. The Distinct map is
// shared but never mutated in place (Analyze/SetStats install fresh
// maps), so the snapshot is safe to read without further locking.
func (t *Table) StatsSnapshot() TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Stats
}

// ColIndex resolves a column name to its position.
func (t *Table) ColIndex(name string) (int, bool) {
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// Catalog owns tables over one storage instance. When db is non-nil
// the catalog is durable: DDL is redo-logged (files, schemas, index
// definitions) so NewDurableCatalog can rebuild it after a crash.
type Catalog struct {
	mu     sync.RWMutex
	store  *storage.Store
	bm     *storage.BufferManager
	tables map[string]*Table
	db     *storage.DB // nil for a volatile catalog
}

// Catalog errors.
var (
	ErrNoTable     = errors.New("query: no such table")
	ErrNoColumn    = errors.New("query: no such column")
	ErrTableExists = errors.New("query: table exists")
	ErrArity       = errors.New("query: wrong number of values")
	ErrType        = errors.New("query: type mismatch")
)

// NewCatalog builds a catalog over fresh storage with the given
// buffer-pool size in frames.
func NewCatalog(bufferFrames int) *Catalog {
	store := storage.NewStore()
	return &Catalog{
		store:  store,
		bm:     storage.NewBufferManager(store, bufferFrames, storage.NewLRU()),
		tables: map[string]*Table{},
	}
}

// Buffer exposes the buffer manager (grain ablation, policy swaps).
func (c *Catalog) Buffer() *storage.BufferManager { return c.bm }

// CreateTable registers a new table. On a durable catalog the heap
// file and schema are redo-logged before the table is visible.
func (c *Catalog) CreateTable(name string, cols []Column) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	var heap *storage.HeapFile
	if c.db != nil {
		h, err := c.db.CreateFile(name)
		if err != nil {
			return nil, err
		}
		if err := c.db.SetMeta(schemaMetaPrefix+key, encodeSchema(cols)); err != nil {
			return nil, err
		}
		heap = h
	} else {
		heap = storage.NewHeapFile(name, c.store, c.bm)
	}
	t := &Table{
		Name:    name,
		Cols:    cols,
		Heap:    heap,
		Indexes: map[string]*storage.BTree{},
		Stats:   TableStats{Distinct: map[string]int{}},
	}
	c.tables[key] = t
	return t, nil
}

// Table resolves a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// Tables lists table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// CreateIndex builds a B-tree on table.col, backfilling existing rows.
// This is also the operation Scenario 3's re-optimiser performs when
// it decides to "add an index to one of the tables" mid-query.
func (c *Catalog) CreateIndex(table, col string) (*storage.BTree, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	ci, ok := t.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, table, col)
	}
	// Hold the table write lock across backfill + install so the scan
	// and the map swap are atomic with respect to concurrent DML (which
	// holds the read lock for heap change + index maintenance).
	t.mu.Lock()
	defer t.mu.Unlock()
	key := strings.ToLower(col)
	if idx, ok := t.Indexes[key]; ok {
		return idx, nil // idempotent
	}
	idx := storage.NewBTree(t.Name + "_" + key)
	err = t.Heap.Scan(func(rid storage.RID, tu storage.Tuple) bool {
		idx.Insert(tu[ci], rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	if c.db != nil {
		// Log the definition, not the tree: recovery rebuilds by
		// backfilling the recovered heap.
		if err := c.db.LogIndex(storage.IndexDef{
			Name: t.Name + "_" + key, File: t.Heap.Name(), Col: ci,
		}); err != nil {
			return nil, err
		}
	}
	next := make(map[string]*storage.BTree, len(t.Indexes)+1)
	for k, v := range t.Indexes {
		next[k] = v
	}
	next[key] = idx
	t.Indexes = next
	return idx, nil
}

// Index returns the index on table.col if one exists.
func (t *Table) Index(col string) (*storage.BTree, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.Indexes[strings.ToLower(col)]
	return idx, ok
}

// checkType verifies a value is assignable to a column.
func checkType(v storage.Value, ct ColumnType) bool {
	if v.IsNull() {
		return true
	}
	switch ct {
	case TInt:
		return v.Kind == storage.KindInt
	case TFloat:
		return v.Kind == storage.KindFloat || v.Kind == storage.KindInt
	case TString:
		return v.Kind == storage.KindString
	case TBool:
		return v.Kind == storage.KindBool
	}
	return false
}

// Insert adds a row, maintaining indexes. Statistics are NOT updated
// (run Analyze) — deliberate, per the package comment.
func (c *Catalog) Insert(table string, row storage.Tuple) (storage.RID, error) {
	return c.InsertTxn(table, row, nil)
}

// InsertTxn is Insert inside txn: the row lands immediately but
// carries the transaction's id as xmin, so only the writer sees it
// until Commit. Index entries are inserted eagerly (index entries
// cover every version; readers filter at fetch) and removed again on
// rollback.
func (c *Catalog) InsertTxn(table string, row storage.Tuple, txn *storage.Txn) (storage.RID, error) {
	t, err := c.Table(table)
	if err != nil {
		return storage.RID{}, err
	}
	if len(row) != len(t.Cols) {
		return storage.RID{}, fmt.Errorf("%w: got %d, want %d", ErrArity, len(row), len(t.Cols))
	}
	for i, v := range row {
		if !checkType(v, t.Cols[i].Type) {
			return storage.RID{}, fmt.Errorf("%w: column %s wants %s, got %v",
				ErrType, t.Cols[i].Name, t.Cols[i].Type, v)
		}
		// Normalise ints assigned to FLOAT columns.
		if t.Cols[i].Type == TFloat && v.Kind == storage.KindInt {
			row[i] = storage.FloatValue(float64(v.Int))
		}
	}
	// Read lock pairs heap insert + index maintenance against
	// CreateIndex's backfill (which holds the write lock): a row lands
	// either before the backfill scan or after the new index installs.
	t.mu.RLock()
	defer t.mu.RUnlock()
	var rid storage.RID
	if txn != nil {
		rid, err = txn.Insert(t.Heap, row)
	} else {
		rid, err = t.Heap.Insert(row)
	}
	if err != nil {
		return storage.RID{}, err
	}
	for col, idx := range t.Indexes {
		ci, _ := t.ColIndex(col)
		idx.Insert(row[ci], rid)
	}
	if txn != nil {
		t.unindexOnRollback(txn, row, rid)
	}
	return rid, nil
}

// unindexOnRollback registers the removal of the index entries of a new
// row version (row, at rid) should txn roll back. The caller holds t.mu.
func (t *Table) unindexOnRollback(txn *storage.Txn, row storage.Tuple, rid storage.RID) {
	if len(t.Indexes) == 0 {
		return
	}
	keys := row.Clone()
	txn.OnRollback(func() error {
		t.mu.RLock()
		defer t.mu.RUnlock()
		for col, idx := range t.Indexes {
			ci, _ := t.ColIndex(col)
			idx.Delete(keys[ci], rid)
		}
		return nil
	})
}

// repoint moves the index entries of the row version holding row from
// rid to moved: claiming a plain record upgrades it to versioned form,
// which can move it within its page, and older snapshots must still
// reach the (to them still visible) version. The caller holds t.mu.
func (t *Table) repoint(row storage.Tuple, rid, moved storage.RID) {
	if moved == rid {
		return
	}
	for col, idx := range t.Indexes {
		ci, _ := t.ColIndex(col)
		idx.Delete(row[ci], rid)
		idx.Insert(row[ci], moved)
	}
}

// victim is one row a DML statement changes: where it is, and what it
// holds (read-only: it may alias a page's shared decode image). Only
// scanPlan.victims makes them — the list must be read whole under the
// statement's snapshot before the first claim.
type victim struct {
	rid storage.RID
	row storage.Tuple
}

// delete removes the pre-selected victims and returns how many went:
// choosing them is a read (Engine.execDML plans it as a SELECT would),
// only the claim belongs here. Inside txn a victim is claimed by
// stamping xmax — the claim IS the write lock, so a concurrent claimer
// aborts with storage.ErrWriteConflict (first-committer-wins) — and its
// index entries stay: older snapshots still reach the old version, and
// readers filter invisible versions at fetch. With a nil txn the record
// and its entries are removed outright.
func (c *Catalog) delete(table string, victims []victim, txn *storage.Txn) (int, error) {
	t, err := c.Table(table)
	if err != nil {
		return 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for n, v := range victims {
		if txn != nil {
			moved, err := txn.Delete(t.Heap, v.rid)
			if err != nil {
				return n, err
			}
			t.repoint(v.row, v.rid, moved)
			continue
		}
		if err := t.Heap.Delete(v.rid); err != nil {
			return n, err
		}
		for col, idx := range t.Indexes {
			ci, _ := t.ColIndex(col)
			idx.Delete(v.row[ci], v.rid)
		}
	}
	return len(victims), nil
}

// update applies set to the pre-selected victims and returns how many
// it changed. Inside txn each victim's old version is claimed (xmax =
// txn id) and a new version inserted with xmin = txn id; the new
// version's index entries are inserted eagerly on every index and
// removed on rollback, the old version's stay for older snapshots. With
// a nil txn the record is rewritten and its entries follow it.
func (c *Catalog) update(table string, victims []victim, set map[string]storage.Value,
	txn *storage.Txn) (int, error) {
	t, err := c.Table(table)
	if err != nil {
		return 0, err
	}
	setIdx := map[int]storage.Value{}
	for col, v := range set {
		ci, ok := t.ColIndex(col)
		if !ok {
			return 0, fmt.Errorf("%w: %s.%s", ErrNoColumn, table, col)
		}
		if !checkType(v, t.Cols[ci].Type) {
			return 0, fmt.Errorf("%w: column %s", ErrType, col)
		}
		if t.Cols[ci].Type == TFloat && v.Kind == storage.KindInt {
			v = storage.FloatValue(float64(v.Int))
		}
		setIdx[ci] = v
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for n, v := range victims {
		nu := v.row.Clone()
		for ci, val := range setIdx {
			nu[ci] = val
		}
		if txn != nil {
			moved, nrid, err := txn.Update(t.Heap, v.rid, nu)
			if err != nil {
				return n, err
			}
			t.repoint(v.row, v.rid, moved)
			for col, idx := range t.Indexes {
				ci, _ := t.ColIndex(col)
				idx.Insert(nu[ci], nrid)
			}
			t.unindexOnRollback(txn, nu, nrid)
			continue
		}
		nrid, err := t.Heap.Update(v.rid, nu)
		if err != nil {
			return n, err
		}
		for col, idx := range t.Indexes {
			ci, _ := t.ColIndex(col)
			if nrid != v.rid || !storage.Equal(v.row[ci], nu[ci]) {
				idx.Delete(v.row[ci], v.rid)
				idx.Insert(nu[ci], nrid)
			}
		}
	}
	return len(victims), nil
}

// Analyze refreshes a table's statistics from its actual contents.
func (c *Catalog) Analyze(table string) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	distinct := make([]map[string]struct{}, len(t.Cols))
	for i := range distinct {
		distinct[i] = map[string]struct{}{}
	}
	rows := 0
	err = t.Heap.Scan(func(_ storage.RID, tu storage.Tuple) bool {
		rows++
		for i, v := range tu {
			distinct[i][v.String()] = struct{}{}
		}
		return true
	})
	if err != nil {
		return err
	}
	fresh := TableStats{Rows: rows, Distinct: map[string]int{}}
	for i, d := range distinct {
		fresh.Distinct[strings.ToLower(t.Cols[i].Name)] = len(d)
	}
	t.mu.Lock()
	t.Stats = fresh // installed wholesale, never mutated in place
	t.mu.Unlock()
	// Statistics refresh doubles as the in-memory engines' zone-map
	// build point (durable engines also rebuild at every checkpoint).
	return t.Heap.BuildZoneMaps()
}

// SetStats force-sets statistics (experiments inject stale values).
func (c *Catalog) SetStats(table string, stats TableStats) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Stats = stats
	return nil
}

// Scan returns an iterator over a table's rows.
func (c *Catalog) Scan(table string) (operators.Iterator, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	return operators.NewHeapScan(t.Heap), nil
}
