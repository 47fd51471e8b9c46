package experiments

import (
	"errors"
	"fmt"
	"time"

	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

func intRow(vs ...int64) storage.Tuple {
	t := make(storage.Tuple, len(vs))
	for i, v := range vs {
		t[i] = storage.IntValue(v)
	}
	return t
}

// load inserts n rows, row(0..n-1), into table in one committed
// transaction: the fixtures' bulk loader.
func load(cat *query.Catalog, table string, n int, row func(i int) storage.Tuple) error {
	txn := cat.DB().Txns().Begin()
	for i := 0; i < n; i++ {
		if _, err := cat.InsertTxn(table, row(i), txn); err != nil {
			return errors.Join(err, txn.Rollback())
		}
	}
	return txn.Commit()
}

// ParallelJoinEngine seeds l(k,v) ⋈ r(k,v) with `rows` tuples per
// side, unique keys, and fresh statistics: the fixture of `admbench
// -bench` and of BenchmarkParallelJoin alike.
func ParallelJoinEngine(rows int) (*query.Engine, error) {
	e := query.NewEngine(query.NewCatalog(), trace.New(), nil)
	for _, ddl := range []string{
		"CREATE TABLE l (k INT, v INT)",
		"CREATE TABLE r (k INT, v INT)",
	} {
		if _, err := e.Exec(ddl); err != nil {
			return nil, err
		}
	}
	cat := e.Catalog()
	if err := load(cat, "l", rows, func(i int) storage.Tuple { return intRow(int64(i), int64(i*3)) }); err != nil {
		return nil, err
	}
	if err := load(cat, "r", rows, func(i int) storage.Tuple { return intRow(int64(i), int64(i*7)) }); err != nil {
		return nil, err
	}
	if err := cat.Analyze("l"); err != nil {
		return nil, err
	}
	if err := cat.Analyze("r"); err != nil {
		return nil, err
	}
	return e, nil
}

// RunParallelJoinBenchBatch times the parallel equi-join l ⋈ r at
// each worker count with the given exchange batch size (0 = operator
// default), the worker counts interleaved inside every repeat.
// Throughput is input rows (both sides) per second — the batch
// pipeline's feed rate.
func RunParallelJoinBenchBatch(m *Measurements, rows int, workers []int, repeats, batch int) error {
	e, err := ParallelJoinEngine(rows)
	if err != nil {
		return err
	}
	const sql = "SELECT l.v, r.v FROM l JOIN r ON l.k = r.k"
	for rep := 0; rep < repeats; rep++ {
		for _, w := range workers {
			start := time.Now()
			res, _, err := e.ExecuteSQL(sql, query.ExecOptions{Workers: w, BatchSize: batch})
			elapsed := time.Since(start)
			if err != nil {
				return err
			}
			if len(res.Rows) != rows {
				return fmt.Errorf("parallel join produced %d rows, want %d", len(res.Rows), rows)
			}
			m.Add(series("ParallelJoin", w), float64(2*rows)/elapsed.Seconds())
		}
	}
	return nil
}
