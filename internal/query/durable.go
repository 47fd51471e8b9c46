// Durable catalog: every Catalog's DDL rides the storage.DB redo log.
// Table heaps are logged files, schemas are WAL metadata records, and
// index definitions are logged for rebuild-by-backfill, so reopening
// the same disks reconstructs the full catalog — tables, rows, and
// secondary indexes — after any crash.
package query

import (
	"errors"
	"fmt"
	"strings"

	"github.com/adm-project/adm/internal/storage"
)

// schemaMetaPrefix keys one WAL metadata record per table; the value
// is the encoded column list.
const schemaMetaPrefix = "table:"

// NewDurableCatalog builds a catalog over an opened crash-safe DB,
// restoring any tables and indexes the DB recovered. The caller owns
// db (checkpointing, stats, closing its disks).
func NewDurableCatalog(db *storage.DB) (*Catalog, error) {
	c := &Catalog{tables: map[string]*Table{}, db: db}
	if err := c.restoreDurable(); err != nil {
		return nil, err
	}
	return c, nil
}

// DB returns the storage the catalog lives in.
func (c *Catalog) DB() *storage.DB { return c.db }

// Checkpoint flushes dirty pages and logs a checkpoint record.
func (c *Catalog) Checkpoint() error { return c.db.Checkpoint() }

// restoreDurable rebuilds tables from recovered files + schema meta
// and adopts the recovery-backfilled index trees.
func (c *Catalog) restoreDurable() error {
	for _, name := range c.db.Files() {
		key := strings.ToLower(name)
		enc, ok := c.db.Meta(schemaMetaPrefix + key)
		if !ok {
			// CreateFile was durable but the schema record was torn off
			// the log tail: the table was never acknowledged, skip it.
			continue
		}
		cols, err := decodeSchema(enc)
		if err != nil {
			return fmt.Errorf("query: restore %s: %w", name, err)
		}
		h, ok := c.db.File(name)
		if !ok {
			return fmt.Errorf("query: restore %s: heap file missing", name)
		}
		c.tables[key] = &Table{
			Name:    name,
			Cols:    cols,
			Heap:    h,
			Indexes: map[string]*storage.BTree{},
			Stats:   TableStats{Distinct: map[string]int{}},
		}
	}
	for _, def := range c.db.IndexDefs() {
		t, ok := c.tables[strings.ToLower(def.File)]
		if !ok {
			continue // index over a table whose schema never made it
		}
		if def.Col < 0 || def.Col >= len(t.Cols) {
			return fmt.Errorf("query: restore index %s: col %d out of range", def.Name, def.Col)
		}
		tree, ok := c.db.Index(def.Name)
		if !ok {
			continue // fresh DB: definitions logged this run live in Indexes already
		}
		t.Indexes[strings.ToLower(t.Cols[def.Col].Name)] = tree
	}
	// Fresh statistics so the planner's index/scan choices survive the
	// restart. A quarantined page must not block recovery — the table
	// stays queryable (reporting ErrQuarantined when touched), it just
	// keeps default stats.
	for key := range c.tables {
		if err := c.Analyze(key); err != nil && !errors.Is(err, storage.ErrQuarantined) {
			return err
		}
	}
	return nil
}

// encodeSchema serialises a column list as "name TYPE,name TYPE".
// SQL identifiers carry neither spaces nor commas, so the framing is
// unambiguous.
func encodeSchema(cols []Column) string {
	parts := make([]string, len(cols))
	for i, col := range cols {
		parts[i] = col.Name + " " + col.Type.String()
	}
	return strings.Join(parts, ",")
}

func decodeSchema(s string) ([]Column, error) {
	if s == "" {
		return nil, fmt.Errorf("empty schema")
	}
	parts := strings.Split(s, ",")
	cols := make([]Column, len(parts))
	for i, part := range parts {
		fields := strings.Fields(part)
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad schema column %q", part)
		}
		typ, err := parseColumnType(fields[1])
		if err != nil {
			return nil, err
		}
		cols[i] = Column{Name: fields[0], Type: typ}
	}
	return cols, nil
}

func parseColumnType(s string) (ColumnType, error) {
	switch strings.ToUpper(s) {
	case "INT":
		return TInt, nil
	case "FLOAT":
		return TFloat, nil
	case "STRING":
		return TString, nil
	case "BOOL":
		return TBool, nil
	}
	return 0, fmt.Errorf("unknown column type %q", s)
}
