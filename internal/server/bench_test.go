package server

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/allocbudget"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/session"
	"github.com/adm-project/adm/internal/storage"
)

// Server-path benchmark dataset: the wire benchmark's tables (item with
// an index on id, grp, acct, ord) at a sixth of its size.
const (
	benchItems  = 2000
	benchGroups = benchItems / 12
	benchAccts  = 64
)

// benchPrice is item id's price in whole cents, below 10,000.
func benchPrice(id int) string { return fmt.Sprintf("%d.%02d", id*7919%10000, id%100) }

// newBenchServer builds a server over a durable catalog the way
// admsqld's -init replay builds one: two MemDisks, one session
// replaying the load, no checkpoint. Workers is pinned at 2, the wire
// benchmark's reference box, so the counts do not depend on the host's
// GOMAXPROCS; write deadlines are off because net.Pipe arms a timer
// per deadline where a TCP socket does not.
func newBenchServer(tb testing.TB) *Server {
	tb.Helper()
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(), storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		tb.Fatal(err)
	}
	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		tb.Fatal(err)
	}
	eng := query.NewEngine(cat, nil, nil)
	load := []string{
		"CREATE TABLE item (id INT, seq INT, grp INT, price FLOAT, name STRING)",
		"CREATE TABLE grp (g INT, region STRING)",
		"CREATE TABLE acct (id INT, bal INT)",
		"CREATE TABLE ord (id INT, acct INT, amt INT)",
	}
	rows := func(table string, n int, row func(i int) string) {
		for lo := 0; lo < n; lo += 500 {
			var vals []string
			for i := lo; i < min(lo+500, n); i++ {
				vals = append(vals, row(i))
			}
			load = append(load, "INSERT INTO "+table+" VALUES "+strings.Join(vals, ","))
		}
	}
	rows("item", benchItems, func(i int) string {
		return fmt.Sprintf("(%d,%d,%d,%s,'item-%06d-%s')", i, i, i%benchGroups, benchPrice(i), i, strings.Repeat("n", 24))
	})
	rows("grp", benchGroups, func(g int) string { return fmt.Sprintf("(%d,'region-%d')", g, g%10) })
	rows("acct", benchAccts, func(i int) string { return fmt.Sprintf("(%d,%d)", i, 1000*i) })
	load = append(load, "CREATE INDEX ON item (id)", "ANALYZE item", "ANALYZE grp", "ANALYZE acct")
	sess := session.NewDBSession(eng, db)
	for _, sql := range load {
		if _, err := sess.Exec(sql); err != nil {
			tb.Fatalf("%.40s: %v", sql, err)
		}
	}
	if err := sess.Close(); err != nil {
		tb.Fatal(err)
	}
	return New(eng, db, Config{Workers: 2, WriteTimeout: -1}, nil)
}

// BenchmarkServerStatement measures what one statement costs from the
// client's query frame to its last decoded reply frame — frame decode,
// admission, parse, plan, execute, encode, flush and the client's
// decode — by driving Server.serve over net.Pipe with the real Client.
// Client and server share the process, so -benchmem counts both, as
// the wire benchmark's alloc_kb_per_op does. An op of write is the wire
// benchmark's write_txn: BEGIN, INSERT, UPDATE, COMMIT. The statement
// texts are generated before the timer starts.
func BenchmarkServerStatement(b *testing.B) {
	srv := newBenchServer(b)
	for _, name := range []string{"point", "scan", "wide", "join_agg", "write"} {
		b.Run(name, func(b *testing.B) {
			op := statementOp(b, srv, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
		})
	}
}

// benchStatements generates statement i of each BenchmarkServerStatement
// op, by name.
var benchStatements = map[string]func(i int) []string{
	"point": func(i int) []string {
		return []string{fmt.Sprintf("SELECT id, price, name FROM item WHERE id = %d", i*7%benchItems)}
	},
	"scan": func(i int) []string {
		lo := i * 37 % 9900
		return []string{fmt.Sprintf("SELECT id, price FROM item WHERE price >= %d AND price < %d", lo, lo+100)}
	},
	"wide": func(i int) []string {
		lo := i * 37 % 8500
		return []string{fmt.Sprintf("SELECT id, seq, grp, price, name FROM item WHERE price >= %d AND price < %d", lo, lo+1500)}
	},
	"join_agg": func(i int) []string {
		return []string{fmt.Sprintf("SELECT g.region, COUNT(*), SUM(i.price) FROM item i JOIN grp g "+
			"ON i.grp = g.g WHERE i.price < %d GROUP BY g.region", 2000+i*61%6000)}
	},
	"write": func(i int) []string {
		acct := i % benchAccts
		return []string{"BEGIN",
			fmt.Sprintf("INSERT INTO ord VALUES (%d,%d,%d)", i, acct, 1+i%1000),
			fmt.Sprintf("UPDATE acct SET bal = %d WHERE id = %d", i, acct),
			"COMMIT"}
	},
}

// statementOp connects a Client to srv over net.Pipe and returns one op
// of the named statement stream, cycling through 512 generated texts.
// The connection closes, and its serve loop must end cleanly, when tb
// ends.
func statementOp(tb testing.TB, srv *Server, name string) func() {
	stmts := make([][]string, 512)
	for i := range stmts {
		stmts[i] = benchStatements[name](i)
	}
	cli, conn := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- srv.serve(conn) }()
	c := &Client{fc: newFrameConn(cli, 0), nc: cli}
	tb.Cleanup(func() {
		if err := c.Close(); err != nil {
			tb.Error(err)
		}
		if err := <-served; err != nil {
			tb.Error(err)
		}
	})
	if err := c.hello(""); err != nil {
		tb.Fatal(err)
	}
	i := 0
	return func() {
		for _, sql := range stmts[i%len(stmts)] {
			if _, err := c.Query(sql); err != nil {
				tb.Fatalf("%s: %v", sql, err)
			}
		}
		i++
	}
}

// Budgets for one point read through the whole server path — query
// frame, admission, parse, plan, index fetch, encode, flush and the
// client's decode, both ends in one process, at 2 workers. Measured
// 6,488 B and 100 allocs per op before the fixed-cost cuts (a trace
// event per worker per statement, a 2-worker fan-out over a serialised
// index cursor, a token slice grown by doubling, a fresh buffer per
// frame, a timer per statement); 3,170-3,250 B and 47 allocs after, at
// GOMAXPROCS 1, 2 and 4; 47 → 46 (3,140-3,230 B) once the statement's
// view holds its transaction instead of a visibility closure; 46 → 45
// (3,100-3,170 → 2,940-3,000 B) once the index scan is a batch source
// itself instead of an iterator behind a mutexed adapter; 45 → 40
// (2,800-2,850 B) once the row streams from the scan to the connection's
// result writer, with no drain slices, no projected tuple and no
// client-side append growth.
const (
	pointByteBudget  = 3328
	pointAllocBudget = 45
)

// The same for the selective scan (the wire benchmark's scan_select,
// ~20 rows of two columns): 14,200-14,400 B and 111-113 allocs while
// the whole result was drained, merged and projected before its first
// frame; 7,450-7,700 B and 91-92 allocs at GOMAXPROCS 1, 2 and 4 once
// rows stream from the morsel workers to the wire.
const (
	scanByteBudget  = 8960
	scanAllocBudget = 104
)

// The same for a wide scan (scan_wide's shape at ~300 rows of all five
// columns, two row chunks): 133,600-138,900 B and 691-696 allocs
// drained whole; 107,800-109,400 B and 677-678 allocs streamed.
const (
	wideByteBudget  = 126976
	wideAllocBudget = 720
)

// The same for the join-aggregate (the wire benchmark's join_agg at a
// sixth of its size): 48,800-48,900 B and 377-383 allocs per op while
// every build regrew its scatter buffers and groups lived in a map;
// 29,400-30,300 B and 204-205 allocs at GOMAXPROCS 1, 2 and 4 after;
// 204 → 202-203 (29,300-30,500 B) with no visibility closure per view.
const (
	joinAggServerByteBudget  = 36864
	joinAggServerAllocBudget = 250
)

// The same for one write transaction (the wire benchmark's write_txn:
// BEGIN, INSERT, UPDATE over the unindexed acct, COMMIT) on a fresh
// server: 25,617 B and 108 allocs per op (26.0-27.3 KB under go test
// -bench) while every write dropped its page's decode image and the
// UPDATE's scan re-decoded the claimed page and the tail page each
// transaction; 8,500-8,600 B and 105 allocs at GOMAXPROCS 1, 2 and 4
// once the image survives inserts and claims; 8,390-8,570 B and 103
// once the UPDATE's row search reads through the SELECT scan source.
const (
	writeByteBudget  = 9472
	writeAllocBudget = 112
)

// TestAllocBudgets holds BenchmarkServerStatement's ops to their
// allocation budgets.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Skip(t)
	srv := newBenchServer(t)
	point := allocbudget.Measure(t, "ServerStatement/point", 2000, statementOp(t, srv, "point"))
	point.Allocs(pointAllocBudget)
	point.Bytes(pointByteBudget)
	scan := allocbudget.Measure(t, "ServerStatement/scan", 2000, statementOp(t, srv, "scan"))
	scan.Allocs(scanAllocBudget)
	scan.Bytes(scanByteBudget)
	wide := allocbudget.Measure(t, "ServerStatement/wide", 2000, statementOp(t, srv, "wide"))
	wide.Allocs(wideAllocBudget)
	wide.Bytes(wideByteBudget)
	joinAgg := allocbudget.Measure(t, "ServerStatement/join_agg", 2000, statementOp(t, srv, "join_agg"))
	joinAgg.Allocs(joinAggServerAllocBudget)
	joinAgg.Bytes(joinAggServerByteBudget)
	write := allocbudget.Measure(t, "ServerStatement/write", 2000, statementOp(t, newBenchServer(t), "write"))
	write.Allocs(writeAllocBudget)
	write.Bytes(writeByteBudget)
}
