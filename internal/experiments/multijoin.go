package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// The multi-join benchmark runs one deliberately mis-ordered 4-table
// star query four ways and reports each as its own bench family:
//
//	MultiJoinDecl    declared (worst) order, adaptation off — the floor
//	MultiJoinGreedy  greedy order from honest statistics, adaptation off
//	MultiJoinAdapt   greedy order from stale statistics, adaptation on
//	MultiJoinOracle  hand-ordered SQL, adaptation off — the ceiling
//
// The gated numbers are the plain speed-ups of Greedy and Adapt over
// Decl, the witness that executes the declaration order (gates.go);
// Oracle shows how much of the gap is left.

// misorderedSQL declares the biggest table first and the selective
// region filter last — the worst left-deep declaration order.
const misorderedSQL = "SELECT c.id, l.qty FROM lineitem l" +
	" JOIN orders o ON l.o_id = o.id" +
	" JOIN customer c ON o.c_id = c.id" +
	" JOIN nation n ON c.n_id = n.id WHERE n.region = 1"

// oracleSQL is the same query hand-ordered: filtered nation first,
// fan-out tables last.
const oracleSQL = "SELECT c.id, l.qty FROM nation n" +
	" JOIN customer c ON c.n_id = n.id" +
	" JOIN orders o ON o.c_id = c.id" +
	" JOIN lineitem l ON l.o_id = o.id WHERE n.region = 1"

// starEngine seeds the 4-table star: nation ← customer ← orders ←
// lineitem with `rows` lineitem tuples and 4×/5×/10× fan-in, fresh
// statistics on every table.
func starEngine(rows int) (*query.Engine, error) {
	if rows < 200 {
		rows = 200
	}
	orders, customers, nations := rows/4, rows/20, 6
	e := query.NewEngine(query.NewCatalog(4096), trace.New(), nil)
	for _, ddl := range []string{
		"CREATE TABLE nation (id INT, region INT)",
		"CREATE TABLE customer (id INT, n_id INT)",
		"CREATE TABLE orders (id INT, c_id INT)",
		"CREATE TABLE lineitem (id INT, o_id INT, qty INT)",
	} {
		if _, err := e.Exec(ddl); err != nil {
			return nil, err
		}
	}
	cat := e.Catalog()
	for _, l := range []struct {
		table string
		n     int
		row   func(i int) storage.Tuple
	}{
		{"nation", nations, func(i int) storage.Tuple { return intRow(int64(i), int64(i%3)) }},
		{"customer", customers, func(i int) storage.Tuple { return intRow(int64(i), int64(i%nations)) }},
		{"orders", orders, func(i int) storage.Tuple { return intRow(int64(i), int64(i%customers)) }},
		{"lineitem", rows, func(i int) storage.Tuple { return intRow(int64(i), int64(i%orders), int64((i*7)%13)) }},
	} {
		if err := load(cat, l.table, l.n, l.row); err != nil {
			return nil, err
		}
	}
	for _, t := range []string{"nation", "customer", "orders", "lineitem"} {
		if err := cat.Analyze(t); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// RunMultiJoinBench times the four variants at `workers` workers.
// Throughput is lineitem (fact-table) rows per second so the four
// series are directly comparable. Every variant must return the same
// row count — a mismatch is a correctness bug, not noise.
func RunMultiJoinBench(m *Measurements, rows, workers, repeats int) error {
	e, err := starEngine(rows)
	if err != nil {
		return err
	}
	if rows < 200 {
		rows = 200
	}
	disabled := &query.AdaptiveConfig{Disabled: true}
	variants := []struct {
		bench string
		sql   string
		opts  query.ExecOptions
		// lie, when set, replaces a table's statistics before each timed
		// run of this variant (undone again right after).
		lie func(cat *query.Catalog) error
	}{
		{bench: "MultiJoinDecl", sql: misorderedSQL,
			opts: query.ExecOptions{JoinOrder: query.JoinOrderDeclared, Adaptive: disabled}},
		{bench: "MultiJoinOracle", sql: oracleSQL,
			opts: query.ExecOptions{JoinOrder: query.JoinOrderDeclared, Adaptive: disabled}},
		{bench: "MultiJoinGreedy", sql: misorderedSQL,
			opts: query.ExecOptions{Adaptive: disabled}},
		{bench: "MultiJoinAdapt", sql: misorderedSQL,
			opts: query.ExecOptions{},
			// Stale statistics: orders claims 2 rows, so greedy seeds the
			// join at orders and the safe-point router has to discover the
			// real cardinality mid-query and re-route.
			lie: func(cat *query.Catalog) error {
				return cat.SetStats("orders", query.TableStats{
					Rows: 2, Distinct: map[string]int{"id": 2, "c_id": 2}})
			}},
	}
	// Repeat 0 is an untimed warmup pass over all four variants (cold
	// caches and heap growth would otherwise be billed to whichever
	// variant runs first); the timed repeats interleave the variants so
	// transient host load biases all four alike instead of whichever
	// variant ran while the machine was busy.
	wantRows := -1
	for rep := -1; rep < repeats; rep++ {
		for _, v := range variants {
			if v.lie != nil {
				if err := v.lie(e.Catalog()); err != nil {
					return err
				}
			}
			opts := v.opts
			opts.Workers = workers
			// Collect before timing: the slow declared-order variant
			// leaves GC debt that would otherwise be billed to whichever
			// variant runs next.
			runtime.GC()
			start := time.Now()
			res, _, err := e.ExecuteSQL(v.sql, opts)
			elapsed := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s: %w", v.bench, err)
			}
			if v.lie != nil {
				// Restore honest statistics for the next repeat's
				// non-adaptive variants.
				if err := e.Catalog().Analyze("orders"); err != nil {
					return err
				}
			}
			if wantRows < 0 {
				wantRows = len(res.Rows)
			} else if len(res.Rows) != wantRows {
				return fmt.Errorf("%s produced %d rows, want %d", v.bench, len(res.Rows), wantRows)
			}
			if rep >= 0 {
				m.Add(series(v.bench, workers), float64(rows)/elapsed.Seconds())
			}
		}
	}
	return nil
}
