package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// regions is the number of distinct grp.region values; join_agg
// groups by it, so it is also the size of that workload's result.
const regions = 10

// dataset is the generator's own copy of D12k: what was loaded, the
// indexes the answer oracle needs, and (model) what the acknowledged
// writes have changed since.
type dataset struct {
	items, groups, accts int

	price []float64 // item.price as loaded, by id
	name  []string  // item.name, by id

	// Item ids in ascending loaded-price order, with prefix sums of
	// the ids: a price range maps to a row count and an id checksum by
	// two binary searches.
	sortedPrice []float64
	idPrefix    []int64
	// Loaded prices per region, ascending, with prefix sums: the
	// expected join_agg group for "price < x".
	regPrice [regions][]float64
	regSum   [regions][]float64

	// The model of acknowledged writes. Clients own disjoint ids, so
	// the slices need no lock; the ord totals are shared.
	curPrice []float64 // item.price now, by id
	curBal   []int64   // acct.bal now, by id
	ordCount atomic.Int64
	ordSum   atomic.Int64
	// writtenBytes counts the logical bytes of every row written after
	// the load: the denominator of the WAL-bytes-per-user-byte metric.
	writtenBytes atomic.Int64
}

// Logical row sizes: 8 bytes per numeric column plus the string bytes.
const (
	itemRowBytes = 4*8 + 40
	grpRowBytes  = 8 + 9
	acctRowBytes = 2 * 8
	ordRowBytes  = 3 * 8
)

// newDataset derives D12k (or a scaled-down copy for the smoke test)
// from the seed. Prices are whole cents so the SQL text round-trips to
// the identical float64.
func newDataset(seed int64, items int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset{
		items:  items,
		groups: max(regions, items/12),
		accts:  max(16, items*512/12000),
	}
	ds.price = make([]float64, items)
	ds.name = make([]string, items)
	letters := make([]byte, 27)
	for id := range ds.price {
		ds.price[id] = float64(rng.Intn(1_000_000)) / 100
		for i := range letters {
			letters[i] = byte('a' + rng.Intn(26))
		}
		ds.name[id] = fmt.Sprintf("item-%08d-%s", id, letters)
	}

	order := make([]int, items)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ds.price[order[a]] < ds.price[order[b]] })
	ds.sortedPrice = make([]float64, items)
	ds.idPrefix = make([]int64, items+1)
	for i, id := range order {
		p := ds.price[id]
		ds.sortedPrice[i] = p
		ds.idPrefix[i+1] = ds.idPrefix[i] + int64(id)
		r := ds.regionOf(id)
		ds.regPrice[r] = append(ds.regPrice[r], p)
	}
	for r := range ds.regSum {
		ds.regSum[r] = make([]float64, len(ds.regPrice[r])+1)
		for i, p := range ds.regPrice[r] {
			ds.regSum[r][i+1] = ds.regSum[r][i] + p
		}
	}

	ds.curPrice = make([]float64, items)
	ds.curBal = make([]int64, ds.accts)
	ds.resetModel()
	return ds
}

// resetModel returns the model to the state just loaded: every
// instance starts from it.
func (ds *dataset) resetModel() {
	copy(ds.curPrice, ds.price)
	for id := range ds.curBal {
		ds.curBal[id] = 1000
	}
	ds.ordCount.Store(0)
	ds.ordSum.Store(0)
	ds.writtenBytes.Store(0)
}

// regionOf is the region index of an item: item.grp = id % groups,
// and group g lives in region g % regions.
func (ds *dataset) regionOf(id int) int { return id % ds.groups % regions }

func regionName(r int) string { return fmt.Sprintf("region-%02d", r) }

// below returns how many loaded prices are < x.
func (ds *dataset) below(x float64) int { return sort.SearchFloat64s(ds.sortedPrice, x) }

func fmtPrice(p float64) string { return strconv.FormatFloat(p, 'f', 2, 64) }

// seedSQL renders the statements an `admsqld -init` file would hold:
// CREATE TABLE, INSERTs of 500 rows, CREATE INDEX, ANALYZE. Only the
// write_txn workload leaves item and grp out.
func (ds *dataset) seedSQL(withItems bool) (stmts []string, rows, bytes int) {
	var sb strings.Builder
	insert := func(table string, n int, row func(i int)) {
		for lo := 0; lo < n; lo += 500 {
			sb.Reset()
			sb.WriteString("INSERT INTO " + table + " VALUES ")
			for i := lo; i < min(lo+500, n); i++ {
				if i > lo {
					sb.WriteByte(',')
				}
				row(i)
			}
			stmts = append(stmts, sb.String())
		}
		rows += n
	}
	if withItems {
		stmts = append(stmts, "CREATE TABLE item (id INT, seq INT, grp INT, price FLOAT, name STRING)")
		insert("item", ds.items, func(id int) {
			fmt.Fprintf(&sb, "(%d,%d,%d,%s,'%s')", id, id, id%ds.groups, fmtPrice(ds.price[id]), ds.name[id])
		})
		stmts = append(stmts, "CREATE TABLE grp (g INT, region STRING)")
		insert("grp", ds.groups, func(g int) {
			fmt.Fprintf(&sb, "(%d,'%s')", g, regionName(g%regions))
		})
		bytes += ds.items*itemRowBytes + ds.groups*grpRowBytes
	}
	stmts = append(stmts, "CREATE TABLE acct (id INT, bal INT)")
	insert("acct", ds.accts, func(id int) { fmt.Fprintf(&sb, "(%d,%d)", id, ds.curBal[id]) })
	bytes += ds.accts * acctRowBytes
	stmts = append(stmts, "CREATE TABLE ord (id INT, acct INT, amt INT)")
	if withItems {
		stmts = append(stmts, "CREATE INDEX ON item (id)", "ANALYZE item", "ANALYZE grp")
	}
	stmts = append(stmts, "ANALYZE acct")
	return stmts, rows, bytes
}
