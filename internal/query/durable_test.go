package query

import (
	"errors"
	"fmt"
	"testing"

	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

func openDurableEngine(t *testing.T, wal, data *storage.MemDisk) (*Engine, *storage.DB) {
	t.Helper()
	db, err := storage.Open(wal, data, storage.DBOptions{BufferFrames: 256})
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	cat, err := NewDurableCatalog(db)
	if err != nil {
		t.Fatalf("durable catalog: %v", err)
	}
	return NewEngine(cat, trace.New(), nil), db
}

func seedDurable(t *testing.T, e *Engine) {
	t.Helper()
	e.MustExec("CREATE TABLE users (id INT, city STRING, age INT)")
	e.MustExec("CREATE TABLE orders (id INT, user_id INT, amount INT)")
	cities := []string{"london", "paris", "tokyo"}
	for i := 0; i < 90; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO users VALUES (%d, '%s', %d)",
			i, cities[i%len(cities)], 18+i%50))
	}
	for i := 0; i < 300; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d)",
			i, i%90, (i*37)%500))
	}
	e.MustExec("CREATE INDEX ON users (id)")
	e.MustExec("CREATE INDEX ON orders (user_id)")
}

var durableQueries = []string{
	"SELECT id, city, age FROM users",
	"SELECT id, age FROM users WHERE id = 41",
	"SELECT u.city, SUM(o.amount) FROM users u JOIN orders o ON u.id = o.user_id GROUP BY u.city",
	"SELECT id, amount FROM orders ORDER BY amount DESC LIMIT 9",
}

// TestDurableCatalogCrashRoundtrip seeds tables + indexes through SQL,
// simulates a crash by reopening from copies of the disk images, and
// requires every query to return the same rows — with and without a
// checkpoint before the crash.
func TestDurableCatalogCrashRoundtrip(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		name := "no-checkpoint"
		if checkpoint {
			name = "checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			wal, data := storage.NewMemDisk(), storage.NewMemDisk()
			e, db := openDurableEngine(t, wal, data)
			seedDurable(t, e)
			if checkpoint {
				if err := db.Checkpoint(); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
			e.MustExec("DELETE FROM users WHERE id = 7")
			e.MustExec("UPDATE users SET age = 99 WHERE id = 41")
			want := map[string][]string{}
			for _, q := range durableQueries {
				want[q] = rowsMultiset(e.MustExec(q))
			}

			// Crash: the old engine's in-memory state is abandoned; only
			// the disk images survive.
			e2, db2 := openDurableEngine(t,
				storage.NewMemDiskFrom(wal.Bytes()), storage.NewMemDiskFrom(data.Bytes()))
			if checkpoint && !db2.Stats().Recovery.CheckpointFound {
				t.Fatal("recovery missed the checkpoint")
			}
			for _, q := range durableQueries {
				got := rowsMultiset(e2.MustExec(q))
				if len(got) != len(want[q]) {
					t.Fatalf("%s: %d rows after recovery, want %d", q, len(got), len(want[q]))
				}
				for i := range got {
					if got[i] != want[q][i] {
						t.Fatalf("%s: row %d = %q, want %q", q, i, got[i], want[q][i])
					}
				}
			}

			// The recovered catalog must have adopted the rebuilt trees,
			// and they must agree with the heap.
			cat := e2.cat
			ut, err := cat.Table("users")
			if err != nil {
				t.Fatalf("users table missing after recovery: %v", err)
			}
			idx, ok := ut.Index("id")
			if !ok {
				t.Fatal("users(id) index missing after recovery")
			}
			if idx.Len() != ut.Heap.Count() {
				t.Fatalf("index has %d entries, heap has %d row versions", idx.Len(), ut.Heap.Count())
			}
			// Entries cover every version: the deleted key's lead to none
			// a snapshot sees.
			snap := db2.Txns().Begin()
			defer snap.Rollback()
			for _, rid := range idx.Search(storage.IntValue(7)) {
				if _, err := snap.View(ut.Heap).Get(rid); !errors.Is(err, storage.ErrNotFound) {
					t.Fatalf("deleted key 7 reachable through the index at %v: %v", rid, err)
				}
			}

			// The recovered engine must accept new DDL and DML.
			e2.MustExec("INSERT INTO users VALUES (990, 'sydney', 31)")
			e2.MustExec("CREATE TABLE tags (id INT, tag STRING)")
			e2.MustExec("INSERT INTO tags VALUES (1, 'alpha')")
			got := rowsMultiset(e2.MustExec("SELECT id FROM users WHERE id = 990"))
			if len(got) != 1 {
				t.Fatalf("post-recovery insert invisible: %v", got)
			}
		})
	}
}

// TestDurableCatalogSchemaRoundtrip pins the schema codec.
func TestDurableCatalogSchemaRoundtrip(t *testing.T) {
	cols := []Column{
		{Name: "id", Type: TInt},
		{Name: "score", Type: TFloat},
		{Name: "name", Type: TString},
		{Name: "ok", Type: TBool},
	}
	enc := encodeSchema(cols)
	dec, err := decodeSchema(enc)
	if err != nil {
		t.Fatalf("decode %q: %v", enc, err)
	}
	if len(dec) != len(cols) {
		t.Fatalf("%d cols, want %d", len(dec), len(cols))
	}
	for i := range cols {
		if dec[i] != cols[i] {
			t.Fatalf("col %d = %+v, want %+v", i, dec[i], cols[i])
		}
	}
	if _, err := decodeSchema("id BLOB"); err == nil {
		t.Fatal("bad type accepted")
	}
	if _, err := decodeSchema(""); err == nil {
		t.Fatal("empty schema accepted")
	}
}

// TestDurableCatalogTornSchemaSkipsTable: a crash between the logged
// CreateFile and its schema meta record must not surface a half-made
// table after recovery.
func TestDurableCatalogTornSchemaSkipsTable(t *testing.T) {
	wal, data := storage.NewMemDisk(), storage.NewMemDisk()
	db, err := storage.Open(wal, data, storage.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateFile("ghost"); err != nil {
		t.Fatal(err)
	}
	// No schema meta: simulates the crash window inside CreateTable.
	cat, err := NewDurableCatalog(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Table("ghost"); err == nil {
		t.Fatal("half-created table visible")
	}
	// And it does not block re-creating the table properly.
	if _, err := cat.CreateTable("ghost", []Column{{Name: "id", Type: TInt}}); err != nil {
		t.Fatalf("re-create after torn DDL: %v", err)
	}
}
