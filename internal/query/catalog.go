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

// Catalog owns tables over one storage.DB. DDL is redo-logged (files,
// schemas, index definitions) so NewDurableCatalog can rebuild the
// catalog after a crash; rows are written through the DB's
// transactions.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	db     *storage.DB
}

// Catalog errors.
var (
	ErrNoTable     = errors.New("query: no such table")
	ErrNoColumn    = errors.New("query: no such column")
	ErrTableExists = errors.New("query: table exists")
	ErrArity       = errors.New("query: wrong number of values")
	ErrType        = errors.New("query: type mismatch")
)

// NewCatalog builds a catalog over a fresh in-memory DB (both disks
// MemDisks, WAL barriers only on commit) with the given buffer-pool
// size in frames.
func NewCatalog(bufferFrames int) *Catalog {
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual, BufferFrames: bufferFrames})
	if err != nil {
		panic(fmt.Sprintf("query: opening an empty in-memory DB: %v", err))
	}
	c, err := NewDurableCatalog(db)
	if err != nil {
		panic(fmt.Sprintf("query: catalog over an empty DB: %v", err))
	}
	return c
}

// Buffer exposes the buffer manager (grain ablation, policy swaps).
func (c *Catalog) Buffer() *storage.BufferManager { return c.db.Buffer() }

// CreateTable registers a new table: the heap file and schema are
// redo-logged before the table is visible.
func (c *Catalog) CreateTable(name string, cols []Column) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	heap, err := c.db.CreateFile(name)
	if err != nil {
		return nil, err
	}
	if err := c.db.SetMeta(schemaMetaPrefix+key, encodeSchema(cols)); err != nil {
		return nil, err
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
	// Index entries cover every version (readers filter at fetch), so
	// the backfill reads version-blind.
	idx := storage.NewBTree(t.Name + "_" + key)
	err = t.Heap.Scan(func(rid storage.RID, tu storage.Tuple) bool {
		idx.Insert(tu[ci], rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	// Log the definition, not the tree: recovery rebuilds by
	// backfilling the recovered heap.
	if err := c.db.LogIndex(storage.IndexDef{
		Name: t.Name + "_" + key, File: t.Heap.Name(), Col: ci,
	}); err != nil {
		return nil, err
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

// InsertTxn adds a row inside txn: the row lands immediately but
// carries the transaction's id as xmin, so only the writer sees it
// until Commit. Index entries are inserted eagerly (index entries
// cover every version; readers filter at fetch) and removed again on
// rollback. Statistics are NOT updated (run Analyze) — deliberate, per
// the package comment.
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
	return t.insert(txn, row)
}

// insert adds row as a new version inside txn and indexes it. The read
// lock pairs heap insert + index maintenance against CreateIndex's
// backfill (which holds the write lock): a row lands either before the
// backfill scan or after the new index installs. Should txn roll back,
// the entries go again.
func (t *Table) insert(txn *storage.Txn, row storage.Tuple) (storage.RID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rid, err := txn.Insert(t.Heap, row)
	if err != nil || len(t.Indexes) == 0 {
		return rid, err
	}
	for col, idx := range t.Indexes {
		ci, _ := t.ColIndex(col)
		idx.Insert(row[ci], rid)
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
	return rid, nil
}

// victim is one row a DML statement changes: where it is, and what it
// holds (read-only: it may alias a page's shared decode image). Only
// scanPlan.victims makes them — the list must be read whole under the
// statement's snapshot before the first claim.
type victim struct {
	rid storage.RID
	row storage.Tuple
}

// delete claims the pre-selected victims inside txn and returns how
// many went: choosing them is a read (Engine.execDML plans it as a
// SELECT would), only the claim belongs here. A victim is claimed by
// stamping xmax — the claim IS the write lock, so a concurrent claimer
// aborts with storage.ErrWriteConflict (first-committer-wins) — and its
// index entries stay: older snapshots still reach the old version, and
// readers filter invisible versions at fetch (a claim changes no index,
// so it needs no table lock). cancel is polled before every claim; on
// an error the caller undoes the claims already made (Engine.execOther's
// savepoint).
func (c *Catalog) delete(table string, victims []victim, txn *storage.Txn, cancel func() error) (int, error) {
	t, err := c.Table(table)
	if err != nil {
		return 0, err
	}
	for n, v := range victims {
		if err := cancel(); err != nil {
			return n, err
		}
		if err := txn.Delete(t.Heap, v.rid); err != nil {
			return n, err
		}
	}
	return len(victims), nil
}

// update applies set to the pre-selected victims inside txn and
// returns how many it changed: each victim's old version is claimed
// (xmax = txn id) and a new version inserted with xmin = txn id
// (Table.insert); the old version's index entries stay for older
// snapshots. cancel is polled as in delete.
func (c *Catalog) update(table string, victims []victim, set map[string]storage.Value,
	txn *storage.Txn, cancel func() error) (int, error) {
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
	for n, v := range victims {
		if err := cancel(); err != nil {
			return n, err
		}
		nu := v.row.Clone()
		for ci, val := range setIdx {
			nu[ci] = val
		}
		if err := txn.Delete(t.Heap, v.rid); err != nil {
			return n, err
		}
		if _, err := t.insert(txn, nu); err != nil {
			return n, err
		}
	}
	return len(victims), nil
}

// Analyze refreshes a table's statistics from the rows a fresh
// snapshot sees.
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
	snap := c.db.Txns().Begin()
	err = snap.View(t.Heap).Scan(func(_ storage.RID, tu storage.Tuple) bool {
		rows++
		for i, v := range tu {
			distinct[i][v.String()] = struct{}{}
		}
		return true
	})
	if rbErr := snap.Rollback(); err == nil {
		err = rbErr
	}
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
	// Statistics refresh doubles as a zone-map build point (every
	// checkpoint is another). Zones summarise every version, so they
	// stay a superset of what any snapshot reads.
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

// Scan returns a raw iterator over a table's records, every version
// (live or dead, committed or not): a measurement of the heap, not a
// query — queries read through a transaction's snapshot.
func (c *Catalog) Scan(table string) (operators.Iterator, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	return operators.NewHeapScan(t.Heap), nil
}
