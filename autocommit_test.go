package adm

import (
	"fmt"
	"sort"
	"testing"
)

// Every statement runs in a transaction: Engine.Exec without one is an
// autocommit, reading under a snapshot of its own and writing through
// first-committer-wins claims, exactly as a session outside BEGIN does.

func newAutocommitEngine(t *testing.T) (*Engine, *DB) {
	t.Helper()
	db, err := OpenDB(NewMemDisk(), NewMemDisk(), DBOptions{Sync: SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDurableEngine(db)
	if err != nil {
		t.Fatal(err)
	}
	eng.MustExec("CREATE TABLE t (a INT, b INT)")
	return eng, db
}

// rowsOf renders a result as sorted "[a b]" strings.
func rowsOf(res *QueryResult) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, fmt.Sprint(row))
	}
	sort.Strings(out)
	return out
}

// TestEngineExecReadsASnapshot: a SELECT through Engine.Exec sees
// neither the dead version a committed UPDATE left behind nor another
// session's uncommitted insert.
func TestEngineExecReadsASnapshot(t *testing.T) {
	eng, db := newAutocommitEngine(t)
	eng.MustExec("INSERT INTO t VALUES (1, 10)")
	if _, err := NewDBSession(eng, db).Exec("UPDATE t SET b = 11 WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	writer := NewDBSession(eng, db)
	if _, err := writer.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec("INSERT INTO t VALUES (2, 20)"); err != nil {
		t.Fatal(err)
	}
	reader := NewDBSession(eng, db)
	want, err := reader.Exec("SELECT a, b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	got := eng.MustExec("SELECT a, b FROM t")
	if fmt.Sprint(rowsOf(got)) != "[[1 11]]" || fmt.Sprint(rowsOf(got)) != fmt.Sprint(rowsOf(want)) {
		t.Fatalf("Engine.Exec read %v, a session %v; want [[1 11]]", rowsOf(got), rowsOf(want))
	}
	if _, err := writer.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if n := db.Txns().Active(); n != 0 {
		t.Fatalf("%d transactions left open", n)
	}
}

// TestEngineExecUpdateCannotResurrectDelete: after a committed DELETE,
// an UPDATE through Engine.Exec finds no row, and no later snapshot
// sees the deleted row again.
func TestEngineExecUpdateCannotResurrectDelete(t *testing.T) {
	eng, db := newAutocommitEngine(t)
	eng.MustExec("INSERT INTO t VALUES (1, 10)")
	if _, err := NewDBSession(eng, db).Exec("DELETE FROM t WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	if n := eng.MustExec("UPDATE t SET b = 12 WHERE a = 1").Affected; n != 0 {
		t.Fatalf("UPDATE of a deleted row affected %d rows", n)
	}
	for _, read := range []func() (*QueryResult, error){
		func() (*QueryResult, error) { return eng.Exec("SELECT a, b FROM t") },
		func() (*QueryResult, error) { return NewDBSession(eng, db).Exec("SELECT a, b FROM t") },
	} {
		res, err := read()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("the deleted row is back: %v", rowsOf(res))
		}
	}
}

// TestSnapshotReadersSkipDeadVersions: a resumable aggregation and
// ANALYZE both read the rows one snapshot sees, not every version on
// the pages.
func TestSnapshotReadersSkipDeadVersions(t *testing.T) {
	eng, db := newAutocommitEngine(t)
	eng.MustExec("INSERT INTO t VALUES (1, 10)")
	eng.MustExec("INSERT INTO t VALUES (2, 20)")
	if _, err := NewDBSession(eng, db).Exec("UPDATE t SET b = 11 WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	agg, err := NewResumableAgg(eng.Catalog(), "t", "b")
	if err != nil {
		t.Fatal(err)
	}
	if n := agg.Remaining(); n != 2 {
		t.Fatalf("resumable aggregation has %d rows to consume, want 2", n)
	}
	agg.Step(10)
	if r := agg.Result(); r.Count != 2 || r.Sum != 31 {
		t.Fatalf("resumable aggregation = %+v, want count 2, sum 31", r)
	}
	eng.MustExec("ANALYZE t")
	tbl, err := eng.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if n := tbl.StatsSnapshot().Rows; n != 2 {
		t.Fatalf("ANALYZE counted %d rows, want 2", n)
	}
}

// TestEveryStoredRecordIsVersioned: every record a mixed SQL workload
// leaves on any page — inserts, updates, deletes, rolled-back and
// committed transactions, autocommit, DDL backfills — starts with the
// version marker.
func TestEveryStoredRecordIsVersioned(t *testing.T) {
	eng, db := newAutocommitEngine(t)
	for i := 0; i < 300; i++ {
		eng.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%7))
	}
	eng.MustExec("CREATE INDEX ON t (a)")
	eng.MustExec("UPDATE t SET b = 99 WHERE a < 40")
	eng.MustExec("DELETE FROM t WHERE b = 3")
	s := NewDBSession(eng, db)
	for _, sql := range []string{"BEGIN", "INSERT INTO t VALUES (1000, 1)", "UPDATE t SET b = 5 WHERE a = 1000",
		"ROLLBACK", "BEGIN", "DELETE FROM t WHERE a = 50", "INSERT INTO t VALUES (1001, 2)", "COMMIT"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	eng.MustExec("ANALYZE t")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, name := range db.Files() {
		h, _ := db.File(name)
		for _, id := range h.PageIDs() {
			p, err := db.Buffer().GetPage(id)
			if err != nil {
				t.Fatal(err)
			}
			for slot := 0; slot < p.Slots(); slot++ {
				rec, err := p.Get(slot)
				if err != nil {
					continue // a tombstone
				}
				if len(rec) < 2 || rec[0] != 0xFF || rec[1] != 0xFF {
					t.Fatalf("%s page %d slot %d holds a record without the version marker: % x", name, id, slot, rec[:min(len(rec), 8)])
				}
				records++
			}
			db.Buffer().Unpin(id)
		}
	}
	if records < 300 {
		t.Fatalf("the workload left only %d records", records)
	}
}
