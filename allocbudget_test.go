package adm

import (
	"testing"

	"github.com/adm-project/adm/internal/allocbudget"
)

// Allocations per full batched heap-file scan. The blind scan reads 2:
// the view and the HeapBatches made per op (the page-list snapshot
// aliases the file's own list); it read 0 while one reopened scan
// operator served every op, and 1 while the page list was copied.
// Headroom for pool warm-up noise. The snapshot scan opens per op and
// adds the transaction and the source's release closure: per scan,
// never per row version. 5 → 4 once the view holds its transaction
// instead of a visibility closure.
const scanAllocBudget = 8

// Budgets for ORDER BY ... LIMIT 10 over 100k rows at 4 workers.
// Measured ~30 allocs / ~3.4 KB per op: per-worker heaps, batch pool
// noise and the final k-row merge. The byte budget is the real
// non-materialisation gate — 100k tuples would be megabytes.
const (
	topKAllocBudget = 64
	topKByteBudget  = 16384
)

// Budgets for a 12k x 1k join grouped into 10 rows at 2 workers.
// Measured 149,064 B and 340 allocs per op with the flat build table
// (rows stored once, chained by hash), 66,700-67,800 B and 147 with the
// build's scatter buffers pooled across statements and the groups in
// flat slot arrays instead of a map of per-group slices; 68,600 B and
// 153 once the fixture's catalog is a DB (the statement's transaction,
// and a snapshot view and its closure per scanned table); 151-154 →
// 149-152 over a dozen runs each once the view holds its transaction
// and the closure is gone. Earlier: the
// per-key map build table was ~350,582 B and 1,414 allocs; the 12k
// joined rows the probe no longer materialises were ~21 MB.
const (
	joinAggByteBudget  = 83968
	joinAggAllocBudget = 184
)

// TestAllocBudgets holds the root package's benchmark bodies to their
// allocation budgets, counted at fixed run counts.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Skip(t)
	allocbudget.Measure(t, "BlindHeapScan", 20, blindScanOp(t, 50_000)).Allocs(scanAllocBudget)
	db, hf := scanBenchFile(t, 10_000)
	allocbudget.Measure(t, "SnapshotHeapScan", 20, snapshotScanOp(t, db, hf, 10_000)).Allocs(scanAllocBudget)
	topK := allocbudget.Measure(t, "TopK", 20, topKOp(t, 100_000))
	topK.Allocs(topKAllocBudget)
	topK.Bytes(topKByteBudget)
	joinAgg := allocbudget.Measure(t, "JoinAggregate", 20, joinAggregateOp(t))
	joinAgg.Allocs(joinAggAllocBudget)
	joinAgg.Bytes(joinAggByteBudget)
}
