package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/adm-project/adm/internal/server"
	"github.com/adm-project/adm/internal/storage"
)

// clients is the closed-loop connection count: one admsqld session is
// one connection with one statement in flight, and the reference box
// has two cores.
const clients = 2

// stmtKind selects the answer check and, on mixed_rw, the latency
// class a statement is reported under.
type stmtKind uint8

const (
	kPoint stmtKind = iota
	kScan
	kWide
	kJoin
	kRange
	kTopK
	kUpdateItem
	kBegin
	kInsertOrd
	kUpdateAcct
	kCommit
	numKinds
)

// stmt is one pre-generated statement with what its check needs: a is
// an id or a lower bound, p a price bound or the value written.
type stmt struct {
	sql  string
	kind stmtKind
	a    int
	p    float64
}

// workload describes one statement stream. opsPerSec sizes it: the
// measured phase issues opsPerSec x seconds operations, a fixed count
// chosen so that it lasts about `seconds` on the commit that defined
// the benchmark (see README, "Why counts and not durations").
type workload struct {
	name      string
	why       string
	opsPerSec float64
	perOp     int  // statements per operation
	items     bool // loads item and grp (D12k); write_txn loads only acct/ord
	writes    bool // leaves WAL behind; gets the durability check
	racy      bool // concurrent writers make exact aggregates unknowable
	gen       func(g *genCtx) []stmt
}

var workloads = []workload{
	{
		name: "point_read", opsPerSec: 36000, perOp: 1, items: true,
		why: "one-row index lookups: per-statement overhead (frames, admission, parse, plan, snapshot) is nearly all the time",
		gen: func(g *genCtx) []stmt { return []stmt{g.point()} },
	},
	{
		name: "scan_select", opsPerSec: 850, perOp: 1, items: true,
		why: "1% unclustered filter over the whole table: page decode and predicate kernels dominate, the wire is idle",
		gen: func(g *genCtx) []stmt { return []stmt{g.scan(kScan, "id, price", 100)} },
	},
	{
		name: "scan_wide", opsPerSec: 520, perOp: 1, items: true,
		why: "the same scan returning 20% of the rows, all columns: result materialisation, encode and flush dominate",
		gen: func(g *genCtx) []stmt { return []stmt{g.scan(kWide, "id, seq, grp, price, name", 2000)} },
	},
	{
		name: "join_agg", opsPerSec: 250, perOp: 1, items: true,
		why: "hash join plus grouped aggregate with a 10-row result: build/probe, parallel aggregation and the planner",
		gen: func(g *genCtx) []stmt { return []stmt{g.join()} },
	},
	{
		name: "write_txn", opsPerSec: 900, perOp: 4, writes: true,
		why: "BEGIN/INSERT/UPDATE/COMMIT: WAL append, device growth, group commit, version chains; reads do nothing",
		gen: (*genCtx).txn,
	},
	{
		name: "mixed_rw", opsPerSec: 85, perOp: 23, items: true, writes: true, racy: true,
		why: "16 lookups, 4 prunable ranges, join, Top-K and an UPDATE on one table: reads beside churn, where pruning decays",
		gen: (*genCtx).cycle,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// genCtx generates one client's stream. Ids that are written are
// owned: client c of n writes only ids = c (mod n), so a write
// conflict is a failure of the engine and not noise of the load.
type genCtx struct {
	ds      *dataset
	rng     *rand.Rand
	client  int
	of      int
	nextOrd int
}

// stream generates n operations of w for one client.
func (w *workload) stream(ds *dataset, seed int64, client, of, n, ordBase int) []stmt {
	g := &genCtx{ds: ds, rng: rand.New(rand.NewSource(seed)), client: client, of: of, nextOrd: ordBase}
	out := make([]stmt, 0, n*w.perOp)
	for i := 0; i < n; i++ {
		out = append(out, w.gen(g)...)
	}
	return out
}

func (g *genCtx) point() stmt {
	id := g.rng.Intn(g.ds.items)
	return stmt{kind: kPoint, a: id,
		sql: fmt.Sprintf("SELECT id, price, name FROM item WHERE id = %d", id)}
}

// scan filters on price, which is unclustered, so zone maps cannot
// prune and every page is decoded; width sets the selectivity.
func (g *genCtx) scan(kind stmtKind, cols string, width int) stmt {
	lo := float64(g.rng.Intn(10000 - width))
	return stmt{kind: kind, p: lo, a: width,
		sql: fmt.Sprintf("SELECT %s FROM item WHERE price >= %s AND price < %s",
			cols, fmtPrice(lo), fmtPrice(lo+float64(width)))}
}

func (g *genCtx) join() stmt {
	x := float64(2000 + g.rng.Intn(6000))
	return stmt{kind: kJoin, p: x,
		sql: "SELECT g.region, COUNT(*), SUM(i.price) FROM item i JOIN grp g ON i.grp = g.g WHERE i.price < " +
			fmtPrice(x) + " GROUP BY g.region"}
}

// ownedID draws an id below n that this client owns.
func (g *genCtx) ownedID(n int) int {
	return g.rng.Intn((n-g.client+g.of-1)/g.of)*g.of + g.client
}

func (g *genCtx) txn() []stmt {
	acct := g.ownedID(g.ds.accts)
	amt := 1 + g.rng.Intn(1000)
	bal := g.rng.Intn(1_000_000)
	ord := g.nextOrd*g.of + g.client
	g.nextOrd++
	return []stmt{
		{kind: kBegin, sql: "BEGIN"},
		{kind: kInsertOrd, a: amt, sql: fmt.Sprintf("INSERT INTO ord VALUES (%d,%d,%d)", ord, acct, amt)},
		{kind: kUpdateAcct, a: acct, p: float64(bal), sql: fmt.Sprintf("UPDATE acct SET bal = %d WHERE id = %d", bal, acct)},
		{kind: kCommit, sql: "COMMIT"},
	}
}

// cycle is the ROADMAP five-statement mix in a fixed order.
func (g *genCtx) cycle() []stmt {
	out := make([]stmt, 0, 23)
	for i := 0; i < 16; i++ {
		out = append(out, g.point())
	}
	for i := 0; i < 4; i++ {
		lo := g.rng.Intn(g.ds.items - rangeRows + 1)
		out = append(out, stmt{kind: kRange, a: lo,
			sql: fmt.Sprintf("SELECT seq, price FROM item WHERE seq >= %d AND seq < %d", lo, lo+rangeRows)})
	}
	out = append(out, g.join())
	out = append(out, stmt{kind: kTopK,
		sql: fmt.Sprintf("SELECT id, price FROM item WHERE grp < %d ORDER BY price DESC LIMIT 10", 1+g.rng.Intn(g.ds.groups))})
	id := g.ownedID(g.ds.items)
	price := float64(g.rng.Intn(1_000_000)) / 100
	out = append(out, stmt{kind: kUpdateItem, a: id, p: price,
		sql: fmt.Sprintf("UPDATE item SET price = %s WHERE id = %d", fmtPrice(price), id)})
	return out
}

// rangeRows is the width of mixed_rw's clustered seq range.
const rangeRows = 200

// Value accessors: the only place the benchmark looks inside a
// storage.Value.
func num(v storage.Value) float64 { f, _ := v.AsFloat(); return f }
func str(v storage.Value) string  { return v.String() }

// check compares one reply with the oracle. racy relaxes the checks
// whose exact answer depends on a concurrent client's writes.
func (ds *dataset) check(st *stmt, res *server.ClientResult, racy bool) error {
	rows := res.Rows
	want := func(cols int) error {
		for _, r := range rows {
			if len(r) != cols {
				return fmt.Errorf("row has %d columns, want %d", len(r), cols)
			}
		}
		return nil
	}
	switch st.kind {
	case kPoint:
		if err := want(3); err != nil {
			return err
		}
		if len(rows) != 1 || int(num(rows[0][0])) != st.a || str(rows[0][2]) != ds.name[st.a] {
			return fmt.Errorf("point %d: got %v", st.a, rows)
		}
		if !racy && num(rows[0][1]) != ds.price[st.a] {
			return fmt.Errorf("point %d: price %v, want %v", st.a, rows[0][1], ds.price[st.a])
		}
	case kScan, kWide:
		cols := 2
		if st.kind == kWide {
			cols = 5
		}
		if err := want(cols); err != nil {
			return err
		}
		lo, hi := ds.below(st.p), ds.below(st.p+float64(st.a))
		var sum int64
		for _, r := range rows {
			sum += int64(num(r[0]))
		}
		if len(rows) != hi-lo || sum != ds.idPrefix[hi]-ds.idPrefix[lo] {
			return fmt.Errorf("scan [%v,+%d): %d rows id-sum %d, want %d rows id-sum %d",
				st.p, st.a, len(rows), sum, hi-lo, ds.idPrefix[hi]-ds.idPrefix[lo])
		}
	case kJoin:
		if err := want(3); err != nil {
			return err
		}
		if racy {
			if len(rows) > regions {
				return fmt.Errorf("join: %d groups, want <= %d", len(rows), regions)
			}
			return nil
		}
		groups := 0
		for r := 0; r < regions; r++ {
			if n := sort.SearchFloat64s(ds.regPrice[r], st.p); n > 0 {
				groups++
			}
		}
		if len(rows) != groups {
			return fmt.Errorf("join < %v: %d groups, want %d", st.p, len(rows), groups)
		}
		for _, row := range rows {
			var r int
			if _, err := fmt.Sscanf(str(row[0]), "region-%d", &r); err != nil || r < 0 || r >= regions {
				return fmt.Errorf("join: bad region %q", str(row[0]))
			}
			n := sort.SearchFloat64s(ds.regPrice[r], st.p)
			sum := ds.regSum[r][n]
			if int(num(row[1])) != n || math.Abs(num(row[2])-sum) > 1e-9*sum+1e-6 {
				return fmt.Errorf("join < %v %s: count %v sum %v, want %d %v", st.p, str(row[0]), row[1], row[2], n, sum)
			}
		}
	case kRange:
		if err := want(2); err != nil {
			return err
		}
		var sum int
		for _, r := range rows {
			sum += int(num(r[0]))
		}
		if wantSum := rangeRows*st.a + rangeRows*(rangeRows-1)/2; len(rows) != rangeRows || sum != wantSum {
			return fmt.Errorf("range %d: %d rows seq-sum %d, want %d rows seq-sum %d", st.a, len(rows), sum, rangeRows, wantSum)
		}
	case kTopK:
		if err := want(2); err != nil {
			return err
		}
		if len(rows) != 10 {
			return fmt.Errorf("topk: %d rows, want 10", len(rows))
		}
		for i := 1; i < len(rows); i++ {
			if num(rows[i][1]) > num(rows[i-1][1]) {
				return fmt.Errorf("topk: row %d out of order", i)
			}
		}
	case kUpdateItem, kUpdateAcct, kInsertOrd:
		if res.Affected != 1 {
			return fmt.Errorf("%s: affected %d, want 1", st.sql, res.Affected)
		}
	}
	return nil
}

// ack folds an acknowledged operation's writes into the model. It is
// called once per committed execution, whichever entry point ran it.
func (ds *dataset) ack(op []stmt) {
	for i := range op {
		switch st := &op[i]; st.kind {
		case kUpdateItem:
			ds.curPrice[st.a] = st.p
			ds.writtenBytes.Add(itemRowBytes)
		case kUpdateAcct:
			ds.curBal[st.a] = int64(st.p)
			ds.writtenBytes.Add(acctRowBytes)
		case kInsertOrd:
			ds.ordCount.Add(1)
			ds.ordSum.Add(int64(st.a))
			ds.writtenBytes.Add(ordRowBytes)
		}
	}
}
