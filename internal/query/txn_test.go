// Transactional SQL tests: snapshot scans through the serial, batch
// and morsel pipelines at several worker counts and batch sizes, and
// DML visibility/conflict behaviour through the engine.
package query

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
)

// newTxnEngine builds a durable engine (group-commit WAL policy) with
// a populated table.
func newTxnEngine(t *testing.T, rows int, withIndex bool) (*Engine, *storage.DB) {
	t.Helper()
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewDurableCatalog(db)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cat, nil, nil)
	eng.MustExec("CREATE TABLE kv (k INT, v STRING)")
	if withIndex {
		eng.MustExec("CREATE INDEX ON kv (k)")
	}
	for i := 0; i < rows; i++ {
		eng.MustExec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'seed-%d')", i, i))
	}
	return eng, db
}

// countRows runs SELECT through the parallel executor inside txn and
// returns the row count.
func countRows(t *testing.T, eng *Engine, txn *storage.Txn, workers, batch int) int {
	t.Helper()
	res, _, err := eng.ExecuteSQL("SELECT k FROM kv", ExecOptions{
		Workers: workers, BatchSize: batch, Txn: txn,
	})
	if err != nil {
		t.Fatalf("select (w=%d b=%d): %v", workers, batch, err)
	}
	return len(res.Rows)
}

// TestTxnSnapshotScanMatrix checks snapshot repeatability through
// every scan pipeline shape: a transaction begun before a concurrent
// committed insert must keep seeing the old row count at workers 1/4
// and batch sizes 1/64/1024, serial and parallel alike.
func TestTxnSnapshotScanMatrix(t *testing.T) {
	const seed = 200
	for _, withIndex := range []bool{false, true} {
		name := "seqscan"
		if withIndex {
			name = "indexscan"
		}
		t.Run(name, func(t *testing.T) {
			eng, db := newTxnEngine(t, seed, withIndex)
			old := db.Txns().Begin()
			defer old.Rollback()

			// A concurrent writer inserts 50 more rows and commits.
			writer := db.Txns().Begin()
			if _, err := execTxn(eng, "INSERT INTO kv VALUES (900, 'new')", writer); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 50; i++ {
				if _, err := execTxn(eng, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'new')", 900+i), writer); err != nil {
					t.Fatal(err)
				}
			}
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}
			fresh := db.Txns().Begin()
			defer fresh.Rollback()

			for _, workers := range []int{1, 4} {
				for _, batch := range []int{1, 64, 1024} {
					t.Run(fmt.Sprintf("w%d_b%d", workers, batch), func(t *testing.T) {
						if got := countRows(t, eng, old, workers, batch); got != seed {
							t.Fatalf("old snapshot sees %d rows, want %d", got, seed)
						}
						if got := countRows(t, eng, fresh, workers, batch); got != seed+50 {
							t.Fatalf("fresh snapshot sees %d rows, want %d", got, seed+50)
						}
					})
				}
			}

			// Index-path point reads inside the old snapshot: a post-
			// snapshot row is invisible even though its index entry exists.
			if withIndex {
				res, err := execTxn(eng, "SELECT v FROM kv WHERE k = 900", old)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 0 {
					t.Fatalf("old snapshot sees post-snapshot row via index: %v", res.Rows)
				}
				res, err = execTxn(eng, "SELECT v FROM kv WHERE k = 900", fresh)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 1 {
					t.Fatalf("fresh snapshot misses committed row via index: %v", res.Rows)
				}
			}
		})
	}
}

// TestTxnDMLVisibility drives UPDATE/DELETE through the engine inside
// transactions and checks read-own-writes, rollback restoration and
// post-commit visibility (with and without an index on the filtered
// column).
func TestTxnDMLVisibility(t *testing.T) {
	for _, withIndex := range []bool{false, true} {
		name := "seqscan"
		if withIndex {
			name = "indexscan"
		}
		t.Run(name, func(t *testing.T) {
			eng, db := newTxnEngine(t, 10, withIndex)

			// UPDATE inside a txn: self sees the new value, others the old.
			t1 := db.Txns().Begin()
			if _, err := execTxn(eng, "UPDATE kv SET v = 'changed' WHERE k = 3", t1); err != nil {
				t.Fatal(err)
			}
			get := func(txn *storage.Txn) string {
				res, err := execTxn(eng, "SELECT v FROM kv WHERE k = 3", txn)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 1 {
					t.Fatalf("k=3 has %d visible rows, want 1: %v", len(res.Rows), res.Rows)
				}
				return res.Rows[0][0].Str
			}
			if got := get(t1); got != "changed" {
				t.Fatalf("own update invisible: %q", got)
			}
			other := db.Txns().Begin()
			if got := get(other); got != "seed-3" {
				t.Fatalf("uncommitted update leaked: %q", got)
			}
			other.Rollback()
			if err := t1.Rollback(); err != nil {
				t.Fatal(err)
			}
			after := db.Txns().Begin()
			if got := get(after); got != "seed-3" {
				t.Fatalf("rollback did not restore: %q", got)
			}
			after.Rollback()

			// DELETE then commit: gone for new snapshots.
			t2 := db.Txns().Begin()
			res, err := execTxn(eng, "DELETE FROM kv WHERE k = 7", t2)
			if err != nil {
				t.Fatal(err)
			}
			if res.Affected != 1 {
				t.Fatalf("delete affected %d, want 1", res.Affected)
			}
			if err := t2.Commit(); err != nil {
				t.Fatal(err)
			}
			t3 := db.Txns().Begin()
			defer t3.Rollback()
			sel, err := execTxn(eng, "SELECT v FROM kv WHERE k = 7", t3)
			if err != nil {
				t.Fatal(err)
			}
			if len(sel.Rows) != 0 {
				t.Fatalf("deleted row still visible: %v", sel.Rows)
			}
			if got := countRows(t, eng, t3, 1, 0); got != 9 {
				t.Fatalf("row count after delete = %d, want 9", got)
			}
		})
	}
}

// TestTxnWriteConflictThroughEngine: two transactions UPDATE the same
// row; the second claim fails with ErrWriteConflict.
func TestTxnWriteConflictThroughEngine(t *testing.T) {
	eng, db := newTxnEngine(t, 5, false)
	t1, t2 := db.Txns().Begin(), db.Txns().Begin()
	defer t1.Rollback()
	defer t2.Rollback()
	if _, err := execTxn(eng, "UPDATE kv SET v = 'a' WHERE k = 2", t1); err != nil {
		t.Fatal(err)
	}
	_, err := execTxn(eng, "UPDATE kv SET v = 'b' WHERE k = 2", t2)
	if !errors.Is(err, storage.ErrWriteConflict) {
		t.Fatalf("concurrent update err = %v, want ErrWriteConflict", err)
	}
}

// TestCatalogScanCountsEveryVersion pins the raw scan the wire
// benchmark's per-layer heap timing counts (Catalog.Scan through
// operators.Count): every version on the table's pages, as
// HeapFile.Count reports them — after an UPDATE (old and new versions)
// and a rolled-back INSERT — and an error for an unknown table, so the
// timing cannot silently count nothing.
func TestCatalogScanCountsEveryVersion(t *testing.T) {
	eng, db := newTxnEngine(t, 20, false)
	eng.MustExec("UPDATE kv SET v = 'u' WHERE k < 5")
	txn := db.Txns().Begin()
	if _, err := execTxn(eng, "INSERT INTO kv VALUES (99, 'gone')", txn); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	src, err := eng.Catalog().Scan("kv")
	if err != nil {
		t.Fatal(err)
	}
	n, err := operators.Count(src)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.Catalog().Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	// 20 loaded, 5 new versions from the UPDATE; the rolled-back insert
	// is undone off its page.
	if want := tbl.Heap.Count(); n != want || n != 25 {
		t.Fatalf("Scan counted %d versions; Heap.Count = %d, want both 25", n, want)
	}
	if _, err := eng.Catalog().Scan("nope"); err == nil {
		t.Fatal("Scan of an unknown table: want an error")
	}
}

// TestTxnDDLRejected: catalog changes are not versioned, so DDL inside
// an explicit transaction must fail rather than half-commit.
func TestTxnDDLRejected(t *testing.T) {
	eng, db := newTxnEngine(t, 1, false)
	txn := db.Txns().Begin()
	defer txn.Rollback()
	for _, sql := range []string{
		"CREATE TABLE other (x INT)",
		"CREATE INDEX ON kv (k)",
		"ANALYZE kv",
	} {
		if _, err := execTxn(eng, sql, txn); err == nil {
			t.Fatalf("%s inside txn succeeded, want error", sql)
		}
	}
}

// TestTxnControlNeedsSession: BEGIN/COMMIT/ROLLBACK parse but cannot
// execute on the bare engine (they need a session's transaction
// stream).
func TestTxnControlNeedsSession(t *testing.T) {
	eng, _ := newTxnEngine(t, 1, false)
	for _, sql := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		if _, err := eng.Exec(sql); err == nil {
			t.Fatalf("%s on bare engine succeeded, want error", sql)
		}
	}
}

// TestTxnIndexNLJoinReadsSnapshot: the index nested-loop join a
// PreferIndex replan links in fetches its inner rows through the
// statement's snapshot — index entries cover every version, so a row
// committed after the snapshot (or deleted after it) must be filtered by
// the reader, not trusted from the index.
func TestTxnIndexNLJoinReadsSnapshot(t *testing.T) {
	eng, db := newTxnEngine(t, 50, true)
	eng.MustExec("CREATE TABLE big (k INT)")
	for i := 0; i < 600; i++ {
		eng.MustExec(fmt.Sprintf("INSERT INTO big VALUES (%d)", i%60))
	}
	eng.MustExec("ANALYZE kv")
	// The optimiser believes big is tiny: it builds first and aborts.
	if err := eng.cat.SetStats("big", TableStats{Rows: 2, Distinct: map[string]int{"k": 2}}); err != nil {
		t.Fatal(err)
	}
	old := db.Txns().Begin()
	defer old.Rollback()
	writer := db.Txns().Begin()
	for _, sql := range []string{
		"INSERT INTO kv VALUES (55, 'late')", // big holds ten k=55 rows
		"DELETE FROM kv WHERE k = 7",
	} {
		if _, err := execTxn(eng, sql, writer); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	fresh := db.Txns().Begin()
	defer fresh.Rollback()

	const sql = "SELECT big.k, kv.v FROM big JOIN kv ON big.k = kv.k"
	for _, workers := range []int{1, 4} {
		for txn, want := range map[*storage.Txn]int{old: 500, fresh: 500 + 10 - 10} {
			res, rep, err := eng.ExecuteSQL(sql, ExecOptions{Workers: workers, Txn: txn,
				Adaptive: &AdaptiveConfig{PreferIndex: true}})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Adaptive.UsedIndex {
				t.Fatalf("workers=%d: no index-NL replan: %+v", workers, rep.Adaptive)
			}
			late := 0
			for _, r := range res.Rows {
				if r[1].Str == "late" {
					late++
				}
			}
			if wantLate := map[bool]int{true: 0, false: 10}[txn == old]; len(res.Rows) != want || late != wantLate {
				t.Fatalf("workers=%d old=%v: %d rows (%d late), want %d (%d late)",
					workers, txn == old, len(res.Rows), late, want, wantLate)
			}
			requireSameOrdered(t, "against the naive evaluator", rowsMultiset(res), rowsMultiset(refSelect(t, eng, sql, txn)))
		}
	}
}

// TestKeyedClaimsBesideSequentialUpdate: three sessions run
// key-disjoint `UPDATE … WHERE id = ?` (index path) while a fourth
// repeatedly runs `UPDATE … WHERE grp = 0` (sequential path) over the
// same pages; no two sessions ever want the same row, so every
// statement must succeed with Affected equal to the rows it owns, and
// at the end every row must exist once, carrying its owner's last
// write, by heap and by index. How one page read meets concurrent
// claims is pinned in storage's TestPageRowsReadOneImage.
func TestKeyedClaimsBesideSequentialUpdate(t *testing.T) {
	const (
		keep    = 480 // rows the sessions own
		writers = 3   // keyed sessions; group 0 is the sequential session's
		groups  = writers + 1
		rounds  = 4
		filler  = 300 // unowned rows closing the heap (grp = groups)
	)
	eng, db := newTxnEngine(t, 0, false)
	eng.MustExec("CREATE TABLE t (id INT, grp INT, v INT)")
	eng.MustExec("CREATE INDEX ON t (id)")
	var load []storage.Tuple
	for i := 0; i < keep+filler; i++ {
		grp := i % groups
		if i >= keep {
			grp = groups
		}
		load = append(load, storage.Tuple{storage.IntValue(int64(i)), storage.IntValue(int64(grp)), storage.IntValue(0)})
	}
	loadRows(t, eng.cat, "t", load...)

	// update runs one autocommit UPDATE and reports what went wrong.
	update := func(sql string, want int) error {
		txn := db.Txns().Begin()
		res, err := execTxn(eng, sql, txn)
		if err != nil {
			txn.Rollback()
			return fmt.Errorf("%s: %w", sql, err)
		}
		if res.Affected != want {
			txn.Rollback()
			return fmt.Errorf("%s: Affected = %d, want %d (plan %s)", sql, res.Affected, want, res.Plan)
		}
		return txn.Commit()
	}
	var keyed sync.WaitGroup
	for w := 1; w <= writers; w++ {
		keyed.Add(1)
		go func(w int) {
			defer keyed.Done()
			for r := 1; r <= rounds; r++ {
				for id := w; id < keep; id += groups {
					if err := update(fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d", r, id), 1); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	keyedDone := make(chan struct{})
	go func() { keyed.Wait(); close(keyedDone) }()
	seqRounds := 0
	for running := true; running && !t.Failed(); {
		select {
		case <-keyedDone:
			running = false // one more pass, over settled pages
		default:
		}
		seqRounds++
		if err := update(fmt.Sprintf("UPDATE t SET v = %d WHERE grp = 0", seqRounds), keep/groups); err != nil {
			t.Error(err)
		}
	}
	<-keyedDone
	if t.Failed() {
		return
	}

	reader := db.Txns().Begin()
	defer reader.Rollback()
	for _, q := range []string{"SELECT id, grp, v FROM t", "SELECT id, grp, v FROM t WHERE id >= 0"} {
		res, err := execTxn(eng, q, reader)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		for _, row := range res.Rows {
			id, grp, v := row[0].Int, row[1].Int, row[2].Int
			if seen[id] {
				t.Fatalf("%s: id %d appears twice", q, id)
			}
			seen[id] = true
			want := int64(rounds)
			switch grp {
			case 0:
				want = int64(seqRounds)
			case groups:
				want = 0
			}
			if v != want {
				t.Fatalf("%s: id %d (grp %d) has v = %d, want %d", q, id, grp, v, want)
			}
		}
		if len(seen) != keep+filler {
			t.Fatalf("%s: %d rows, want %d", q, len(seen), keep+filler)
		}
	}
}
