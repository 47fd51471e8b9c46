package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/storage"
)

func newSessionFixture(t *testing.T) (*query.Engine, *storage.DB) {
	t.Helper()
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(cat, nil, nil)
	eng.MustExec("CREATE TABLE kv (k INT, v STRING)")
	for i := 0; i < 5; i++ {
		eng.MustExec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'seed-%d')", i, i))
	}
	return eng, db
}

func sessCount(t *testing.T, s *DBSession) int {
	t.Helper()
	res, err := s.Exec("SELECT k FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// TestDBSessionSQLTxn drives BEGIN/COMMIT/ROLLBACK as SQL and checks
// isolation between two sessions.
func TestDBSessionSQLTxn(t *testing.T) {
	eng, db := newSessionFixture(t)
	a, b := NewDBSession(eng, db), NewDBSession(eng, db)

	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if !a.InTxn() {
		t.Fatal("BEGIN left session in autocommit")
	}
	if _, err := a.Exec("INSERT INTO kv VALUES (100, 'mine')"); err != nil {
		t.Fatal(err)
	}
	if got := sessCount(t, a); got != 6 {
		t.Fatalf("writer sees %d rows, want 6", got)
	}
	if got := sessCount(t, b); got != 5 {
		t.Fatalf("other session sees uncommitted row: %d rows", got)
	}
	if _, err := a.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if a.InTxn() {
		t.Fatal("COMMIT left transaction open")
	}
	if got := sessCount(t, b); got != 6 {
		t.Fatalf("committed row invisible to other session: %d rows", got)
	}

	// ROLLBACK undoes.
	if _, err := b.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("DELETE FROM kv WHERE k = 0"); err != nil {
		t.Fatal(err)
	}
	if got := sessCount(t, b); got != 5 {
		t.Fatalf("own delete not applied: %d rows", got)
	}
	if _, err := b.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if got := sessCount(t, b); got != 6 {
		t.Fatalf("rollback did not restore: %d rows", got)
	}

	// COMMIT/ROLLBACK without a transaction.
	if _, err := a.Exec("COMMIT"); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("bare COMMIT err = %v, want ErrNoTxn", err)
	}
	if _, err := a.Exec("ROLLBACK"); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("bare ROLLBACK err = %v, want ErrNoTxn", err)
	}
}

// TestDBSessionConflictAutoRollback: a write conflict inside an
// explicit transaction dooms it — the session rolls it back and
// returns to autocommit.
func TestDBSessionConflictAutoRollback(t *testing.T) {
	eng, db := newSessionFixture(t)
	a, b := NewDBSession(eng, db), NewDBSession(eng, db)
	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("UPDATE kv SET v = 'a' WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	_, err := b.Exec("UPDATE kv SET v = 'b' WHERE k = 1")
	if !errors.Is(err, storage.ErrWriteConflict) {
		t.Fatalf("conflicting update err = %v, want ErrWriteConflict", err)
	}
	if b.InTxn() {
		t.Fatal("conflicted transaction not auto-rolled-back")
	}
	if _, err := a.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, err := b.Exec("SELECT v FROM kv WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "a" {
		t.Fatalf("winner's update lost: %v", res.Rows)
	}
}

// TestDBSessionAutocommitConcurrent: autocommit DML from many
// sessions rides implicit transactions through group commit; all rows
// land.
func TestDBSessionAutocommitConcurrent(t *testing.T) {
	eng, db := newSessionFixture(t)
	const sessions = 8
	const rowsPer = 10
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := NewDBSession(eng, db)
			for i := 0; i < rowsPer; i++ {
				k := 1000 + s*rowsPer + i
				if _, err := sess.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 's%d')", k, s)); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sess := NewDBSession(eng, db)
	if got := sessCount(t, sess); got != 5+sessions*rowsPer {
		t.Fatalf("rows = %d, want %d", got, 5+sessions*rowsPer)
	}
}

// TestDBSessionSelectSnapshots: a SELECT inside an explicit transaction
// reads the session's snapshot at any worker count, and an autocommit
// SELECT reads under a snapshot it then rolls back — no WAL traffic —
// whichever of Exec and ExecOpts issued it.
func TestDBSessionSelectSnapshots(t *testing.T) {
	eng, db := newSessionFixture(t)
	a, b := NewDBSession(eng, db), NewDBSession(eng, db)
	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	// Snapshots are taken at BEGIN; b's later commit must stay invisible.
	if _, err := b.Exec("INSERT INTO kv VALUES (500, 'late')"); err != nil {
		t.Fatal(err)
	}
	res, err := a.ExecOpts("SELECT k FROM kv", query.ExecOptions{Workers: 4, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("txn scan sees %d rows, want 5 (snapshot at BEGIN)", len(res.Rows))
	}
	if _, err := a.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	wal := db.Stats().WALAppends
	res, err = a.ExecOpts("SELECT k FROM kv", query.ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := sessCount(t, a); len(res.Rows) != 6 || got != 6 {
		t.Fatalf("autocommit scans see %d and %d rows, want 6", len(res.Rows), got)
	}
	if got := db.Stats().WALAppends; got != wal {
		t.Fatalf("autocommit SELECTs appended %d WAL records, want none", got-wal)
	}
	if n := db.Txns().Active(); n != 0 {
		t.Fatalf("%d transactions left open", n)
	}
}

// TestDBSessionDDLPaths: DDL works in autocommit, fails inside an
// explicit transaction.
func TestDBSessionDDLPaths(t *testing.T) {
	eng, db := newSessionFixture(t)
	s := NewDBSession(eng, db)
	if _, err := s.Exec("CREATE INDEX ON kv (k)"); err != nil {
		t.Fatalf("autocommit DDL: %v", err)
	}
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE nope (x INT)"); err == nil {
		t.Fatal("DDL inside txn succeeded, want error")
	}
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

// cancelAfterClaims is a Cancel hook that fires once the DB has logged
// n records past the moment it was made: a multi-row UPDATE is past
// choosing its rows and n claims into applying them.
func cancelAfterClaims(db *storage.DB, n uint64, err error) func() error {
	start := db.Stats().WALAppends
	return func() error {
		if db.Stats().WALAppends >= start+n {
			return err
		}
		return nil
	}
}

// TestDBSessionCancelledDMLUndoesItself: a statement cancelled while it
// claims rows undoes its own writes and nothing else. Inside BEGIN the
// transaction stays open, keeps its earlier write, and a following
// UPDATE plus COMMIT succeed; in autocommit no transaction and no claim
// outlives the statement.
func TestDBSessionCancelledDMLUndoesItself(t *testing.T) {
	eng, db := newSessionFixture(t)
	errStop := errors.New("statement deadline")
	s, other := NewDBSession(eng, db), NewDBSession(eng, db)
	values := func(sess *DBSession) []string {
		t.Helper()
		res, err := sess.Exec("SELECT k, v FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		return sortedRows(res)
	}
	seeded := values(s)

	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO kv VALUES (50, 'kept')"); err != nil {
		t.Fatal(err)
	}
	before := values(s)
	_, err := s.ExecOpts("UPDATE kv SET v = 'cancelled'", query.ExecOptions{Workers: 1, Cancel: cancelAfterClaims(db, 3, errStop)})
	if !errors.Is(err, errStop) {
		t.Fatalf("cancelled UPDATE err = %v, want the cancel error", err)
	}
	if !s.InTxn() {
		t.Fatal("a cancelled statement ended the transaction")
	}
	if got := values(s); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("the cancelled UPDATE left writes behind:\n got %v\nwant %v", got, before)
	}
	if res, err := s.Exec("UPDATE kv SET v = 'done' WHERE k < 2"); err != nil || res.Affected != 2 {
		t.Fatalf("UPDATE after the cancel: %v, %v", res, err)
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if got := values(other); len(got) != len(seeded)+1 || got[0] != "0|done" || got[len(got)-1] != "50|kept" {
		t.Fatalf("after COMMIT another session sees %v", got)
	}

	committed := values(other)
	_, err = s.ExecOpts("UPDATE kv SET v = 'cancelled'", query.ExecOptions{Workers: 1, Cancel: cancelAfterClaims(db, 3, errStop)})
	if !errors.Is(err, errStop) {
		t.Fatalf("cancelled autocommit UPDATE err = %v, want the cancel error", err)
	}
	if n := db.Txns().Active(); n != 0 {
		t.Fatalf("%d transactions outlive a cancelled autocommit statement", n)
	}
	if got := values(other); fmt.Sprint(got) != fmt.Sprint(committed) {
		t.Fatalf("the cancelled autocommit UPDATE left writes behind: %v", got)
	}
	// No claim survives either: another session updates every row.
	if res, err := other.Exec("UPDATE kv SET v = 'free'"); err != nil || res.Affected != len(committed) {
		t.Fatalf("UPDATE of every row after the cancel: %v, %v", res, err)
	}
}

// sortedRows renders a result's rows as sorted "a|b" lines.
func sortedRows(res *query.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		line := ""
		for i, v := range row {
			if i > 0 {
				line += "|"
			}
			line += v.String()
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}
