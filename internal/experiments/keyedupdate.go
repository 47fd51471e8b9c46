// KeyedUpdate benchmark: what a one-row UPDATE costs as its table
// grows. `UPDATE s SET v = ? WHERE k = ?` on an indexed key touches one
// row and logs one record whatever the table's size, so the same
// statements against an 8×-larger table must run at about the same
// rate; an UPDATE that scans for its row, or a log device that copies
// itself per append, runs them ~8× slower (the dml-by-key gate).
package experiments

import (
	"fmt"
	"time"

	"github.com/adm-project/adm/internal/query"
)

// RunKeyedUpdateBench times autocommit keyed UPDATEs on a table of `rows` rows
// (KeyedUpdateBig) and one of rows/8 (KeyedUpdate, the witness),
// interleaved inside every repeat. Throughput is statements per second.
func RunKeyedUpdateBench(m *Measurements, rows, repeats int) error {
	const updates = 2000
	type fixture struct {
		bench string
		rows  int
		eng   *query.Engine
	}
	fixtures := []fixture{{bench: "KeyedUpdateBig", rows: rows}, {bench: "KeyedUpdate", rows: rows / 8}}
	for i := range fixtures {
		e, err := scanFilterEngine(fixtures[i].rows)
		if err != nil {
			return err
		}
		if _, err := e.Exec("CREATE INDEX ON s (k)"); err != nil {
			return err
		}
		fixtures[i].eng = e
	}
	for rep := -1; rep < repeats; rep++ { // repeat -1 warms up, as above
		for _, f := range fixtures {
			start := time.Now()
			for i := 0; i < updates; i++ {
				k := (i*7919 + (rep+1)*31) % f.rows
				res, err := f.eng.Exec(fmt.Sprintf("UPDATE s SET v = %d WHERE k = %d", i, k))
				if err == nil && res.Affected != 1 {
					err = fmt.Errorf("UPDATE of key %d affected %d rows", k, res.Affected)
				}
				if err != nil {
					return fmt.Errorf("%s: %w", f.bench, err)
				}
			}
			if rep >= 0 {
				m.Add(series(f.bench, 1), updates/time.Since(start).Seconds())
			}
		}
	}
	return nil
}
