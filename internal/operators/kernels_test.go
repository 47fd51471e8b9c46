// Kernel correctness tests: the compiled predicate must agree with
// the boxed reference semantics (NULL fails every comparison, numeric
// kinds compare through the float image, NaN compares equal to all
// numerics, mixed kinds order by kind tag) on every value × literal ×
// operator combination, and the zone-map prune decision must never
// veto a page holding a passing row.
package operators

import (
	"fmt"
	"math"
	"testing"

	"github.com/adm-project/adm/internal/allocbudget"
	"github.com/adm-project/adm/internal/storage"
)

// cmpOps are the six comparison kernels with their boxed pass rule.
var cmpOps = []struct {
	op   KernelOp
	name string
}{
	{KernEQ, "="}, {KernNE, "!="}, {KernLT, "<"},
	{KernGT, ">"}, {KernLE, "<="}, {KernGE, ">="},
}

// boxedKeep is the reference semantics, written independently of the
// kernel: exactly what query.compilePreds does per conjunct.
func boxedKeep(op KernelOp, v, lit storage.Value) bool {
	switch op {
	case KernIsNull:
		return v.Kind == storage.KindNull
	case KernNotNull:
		return v.Kind != storage.KindNull
	}
	if v.IsNull() {
		return false
	}
	cmp := storage.Compare(v, lit)
	switch op {
	case KernEQ:
		return cmp == 0
	case KernNE:
		return cmp != 0
	case KernLT:
		return cmp < 0
	case KernGT:
		return cmp > 0
	case KernLE:
		return cmp <= 0
	}
	return cmp >= 0
}

// hardValues covers every kind plus the numeric edge cases the kernel
// fast paths must replicate bit-for-bit: NaN (compares equal to any
// numeric), -0 (equal to +0), int64 magnitudes that lose precision as
// float64, infinities, empty and high strings, bools.
func hardValues() []storage.Value {
	return []storage.Value{
		storage.NullValue(),
		storage.IntValue(0), storage.IntValue(-1), storage.IntValue(1),
		storage.IntValue(math.MaxInt64), storage.IntValue(math.MinInt64),
		storage.IntValue(1 << 53), storage.IntValue(1<<53 + 1),
		storage.FloatValue(0), storage.FloatValue(math.Copysign(0, -1)),
		storage.FloatValue(math.NaN()), storage.FloatValue(math.Inf(1)),
		storage.FloatValue(math.Inf(-1)), storage.FloatValue(2.5),
		storage.FloatValue(float64(1 << 53)),
		storage.StringValue(""), storage.StringValue("a"), storage.StringValue("\xff\xff"),
		storage.BoolValue(false), storage.BoolValue(true),
	}
}

// predFilter is a storage.RowFilter of one compiled conjunct, which
// records whether the image's column read as all-numeric.
type predFilter struct {
	p      *compiledPred
	allNum bool
}

// MayMatch never vetoes: the exhaustive test holds the row loop.
func (f *predFilter) MayMatch(storage.PageImage) bool { return true }

func (f *predFilter) Sel() []int32 { return nil }

func (f *predFilter) Filter(img storage.PageImage, sel []int32) []int32 {
	f.allNum = img.Col(f.p.Col).AllNum
	return f.p.filterSel(img, sel)
}

// onePage loads vals, one row each, into a heap file of one page and
// returns its reader.
func onePage(t *testing.T, vals []storage.Value) (*storage.HeapView, storage.PageID) {
	t.Helper()
	db, hf := newHeap(t, "v")
	rows := make([]storage.Tuple, len(vals))
	for i, v := range vals {
		rows[i] = storage.Tuple{v}
	}
	load(t, db, hf, rows...)
	view := hf.Blind()
	if ids := view.PageIDs(); len(ids) != 1 {
		t.Fatalf("%d values fill %d pages, want 1", len(vals), len(ids))
	}
	return view, view.PageIDs()[0]
}

// TestKernelMatchesBoxedExhaustive runs every (row value × literal ×
// operator) combination through three paths and holds each to the
// boxed rule: a page read of an all-numeric page (the branch-free
// loop), a page read of a page mixing every kind, NULL and strings
// included (the class switch), and slowKeep on the value (the tuple
// fallback).
func TestKernelMatchesBoxedExhaustive(t *testing.T) {
	vals := hardValues()
	var nums []storage.Value
	for _, v := range vals {
		if _, ok := v.AsFloat(); ok {
			nums = append(nums, v)
		}
	}
	pages := []struct {
		name   string
		vals   []storage.Value
		allNum bool
	}{{"all-numeric page", nums, true}, {"mixed page", vals, false}}
	check := func(op KernelOp, name string, lit storage.Value) {
		p := compilePred(ColPred{Col: 0, Op: op, Lit: lit})
		for _, pg := range pages {
			view, id := onePage(t, pg.vals)
			f := &predFilter{p: p}
			got, err := view.ReadPage(id, nil, nil, f)
			if err != nil {
				t.Fatal(err)
			}
			if f.allNum != pg.allNum {
				t.Fatalf("%s: column read all-numeric = %v", pg.name, f.allNum)
			}
			kept := 0
			for _, v := range pg.vals {
				want := boxedKeep(op, v, lit)
				if kept < len(got) && sameValue(got[kept][0], v) {
					kept++
					if !want {
						t.Errorf("%s: %v %s %v kept, boxed drops it", pg.name, v, name, lit)
					}
				} else if want {
					t.Errorf("%s: %v %s %v dropped, boxed keeps it", pg.name, v, name, lit)
				}
			}
		}
		for _, v := range vals {
			if got, want := p.slowKeep(v), boxedKeep(op, v, lit); got != want {
				t.Errorf("slowKeep: %v %s %v = %v, boxed %v", v, name, lit, got, want)
			}
		}
	}
	for _, lit := range vals {
		for _, oc := range cmpOps {
			check(oc.op, oc.name, lit)
		}
	}
	check(KernIsNull, "IS NULL", storage.Value{})
	check(KernNotNull, "IS NOT NULL", storage.Value{})
}

// sameValue is identity of values as stored: kind and bits (NaN is
// itself, -0 is not +0).
func sameValue(a, b storage.Value) bool {
	return a.Kind == b.Kind && a.Int == b.Int && a.Str == b.Str && a.Bool == b.Bool &&
		math.Float64bits(a.Float) == math.Float64bits(b.Float)
}

// TestMayMatchNeverPrunesPassingRow: for every single-value page and
// every predicate, a page whose zones veto must hold no passing row.
func TestMayMatchNeverPrunesPassingRow(t *testing.T) {
	vals := hardValues()
	allOps := append([]KernelOp{}, KernIsNull, KernNotNull)
	for _, oc := range cmpOps {
		allOps = append(allOps, oc.op)
	}
	// Pages of 1..3 mixed values.
	var pages [][]storage.Value
	for i, a := range vals {
		pages = append(pages, []storage.Value{a})
		pages = append(pages, []storage.Value{a, vals[(i*5+3)%len(vals)]})
		pages = append(pages, []storage.Value{a, vals[(i+7)%len(vals)], vals[(i*11+1)%len(vals)]})
	}
	for _, lit := range vals {
		for _, op := range allOps {
			p := compilePred(ColPred{Col: 0, Op: op, Lit: lit})
			for _, page := range pages {
				ts := make([]storage.Tuple, len(page))
				for i, v := range page {
					ts[i] = storage.Tuple{v}
				}
				zones := storage.BuildColZones(ts)
				if p.mayMatch(zones) {
					continue // scanning is always sound
				}
				for _, v := range page {
					if boxedKeep(op, v, lit) {
						t.Fatalf("pruned page %v loses row %v under op %d lit %v (zones %+v)",
							page, v, op, lit, zones)
					}
				}
			}
		}
	}
}

// drain reads every page of src serially into one batch and returns
// the rows.
func drain(t *testing.T, src BatchSource) []storage.Tuple {
	t.Helper()
	b := GetBatch()
	defer PutBatch(b)
	var out []storage.Tuple
	for {
		n, err := src.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out = append(out, b.Tuples...)
	}
}

// TestFilterKernelPageReadCompacts: a multi-conjunct kernel run by the
// page read keeps exactly the rows passing all conjuncts, in page
// order, and keeps agreeing across enough pages to reorder them.
func TestFilterKernelPageReadCompacts(t *testing.T) {
	preds := []ColPred{
		{Col: 0, Op: KernNE, Lit: storage.IntValue(13), Name: "a != 13"},
		{Col: 0, Op: KernGE, Lit: storage.IntValue(10), Name: "a >= 10"},
		{Col: 1, Op: KernLT, Lit: storage.StringValue("m"), Name: "b < 'm'"},
	}
	db, hf := newHeap(t, "t")
	var rows []storage.Tuple
	for i := 0; i < 12000; i++ {
		s := "z"
		if i%3 == 0 {
			s = "a"
		}
		rows = append(rows, storage.Tuple{storage.IntValue(int64(i % 20)), storage.StringValue(s)})
	}
	load(t, db, hf, rows...)
	var want []string
	for _, tu := range rows {
		if boxedKeep(KernGE, tu[0], storage.IntValue(10)) &&
			boxedKeep(KernLT, tu[1], storage.StringValue("m")) &&
			boxedKeep(KernNE, tu[0], storage.IntValue(13)) {
			want = append(want, fmt.Sprint(tu))
		}
	}
	if pages := len(hf.PageIDs()); pages < 2*reorderEvery {
		t.Fatalf("%d pages cross the reorder cadence too few times", pages)
	}
	k := NewFilterKernel(preds, nil, nil)
	for round := 0; round < 3; round++ {
		got := drain(t, NewHeapBatches(hf.Blind(), k, false))
		if len(got) != len(want) {
			t.Fatalf("round %d: %d rows, want %d", round, len(got), len(want))
		}
		for i, tu := range got {
			if fmt.Sprint(tu) != want[i] {
				t.Fatalf("round %d row %d: %v want %s", round, i, tu, want[i])
			}
		}
	}
	// a != 13 drops 5% of its input, b < 'm' two thirds: the rank
	// moves the string conjunct ahead of it.
	if order := *k.order.Load(); order[0].Name != "b < 'm'" {
		t.Fatalf("after %d pages the first conjunct is %s", 3*len(hf.PageIDs()), order[0].Name)
	}
}

// TestFilterKernelBoxedResidual: the residual predicate runs after the
// kernels, on their survivors.
func TestFilterKernelBoxedResidual(t *testing.T) {
	k := NewFilterKernel(
		[]ColPred{{Col: 0, Op: KernGT, Lit: storage.IntValue(5), Name: "a > 5"}},
		func(tu storage.Tuple) bool { return tu[0].Int%2 == 0 },
		nil)
	db, hf := newHeap(t, "t")
	for i := 0; i < 20; i++ {
		load(t, db, hf, storage.Tuple{storage.IntValue(int64(i))})
	}
	got := drain(t, NewHeapBatches(hf.Blind(), k, false))
	for _, tu := range got {
		if tu[0].Int <= 5 || tu[0].Int%2 != 0 {
			t.Fatalf("row %v survived kernel+residual", tu)
		}
	}
	if len(got) != 7 { // 6,8,10,12,14,16,18
		t.Fatalf("%d rows, want 7", len(got))
	}
}

// TestFilterRankMatchesEddy pins the shared rank formula.
func TestFilterRankMatchesEddy(t *testing.T) {
	f := &EddyFilter{Cost: 2}
	f.evals, f.passes = 100, 25
	if got, want := f.rank(), FilterRank(2, 0.25); got != want {
		t.Fatalf("rank = %v, FilterRank = %v", got, want)
	}
	if r := FilterRank(1, 1); math.IsInf(r, 1) {
		t.Fatal("always-pass filter must rank finite")
	}
}

// BenchmarkFilterBatch is the allocation gate: steady-state kernel
// filtering of 1,024 rows through the page read, over cached page
// images, must stay within TestAllocBudgets's budget (the selection
// vector is retained on the batch's kernel pass).
func BenchmarkFilterBatch(b *testing.B) {
	op := filterBatchOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// filterBatchOp returns BenchmarkFilterBatch's op: one filtered read of
// every page of a 1,024-row heap file into a batch.
func filterBatchOp(tb testing.TB) func() {
	const n = 1024
	db, hf := newHeap(tb, "f")
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{storage.IntValue(int64(i % 100)), storage.FloatValue(float64(i))}
	}
	load(tb, db, hf, rows...)
	k := NewFilterKernel([]ColPred{
		{Col: 0, Op: KernLT, Lit: storage.IntValue(50), Name: "a < 50"},
		{Col: 1, Op: KernGE, Lit: storage.FloatValue(10), Name: "b >= 10"},
	}, nil, nil)
	view, ids := hf.Blind(), hf.PageIDs()
	batch := GetBatch()
	f := batch.pass.bind(k)
	return func() {
		for _, id := range ids {
			var err error
			if batch.Tuples, err = view.ReadPage(id, batch.Tuples[:0], nil, f); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// Steady-state vectorized filtering of 1,024 rows (measured 0: the
// images and their vectors are cached, the selection vector is reused;
// headroom for the occasional conjunct-reorder copy).
const filterAllocBudget = 2

// TestAllocBudgets holds BenchmarkFilterBatch to its allocation budget.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Skip(t)
	allocbudget.Measure(t, "FilterBatch", 100, filterBatchOp(t)).Allocs(filterAllocBudget)
}

// TestHeapBatchesVetoOnImageSummary: with no build step before it, a
// kernel scan of a clustered table vetoes every page whose image
// summary rules the predicate out, inside the page read, keeps exactly
// the passing rows, and counts each page once, pruned or scanned.
func TestHeapBatchesVetoOnImageSummary(t *testing.T) {
	db, hf := newHeap(t, "t")
	rows := make([]storage.Tuple, 3000)
	for i := range rows {
		rows[i] = storage.Tuple{storage.IntValue(int64(i))}
	}
	load(t, db, hf, rows...)
	pages := len(hf.PageIDs())
	if pages < 4 {
		t.Fatalf("fixture spans %d pages, want >= 4", pages)
	}
	for pass := 0; pass < 2; pass++ {
		var stats ScanStats
		k := NewFilterKernel([]ColPred{{Col: 0, Op: KernGE, Lit: storage.IntValue(2990), Name: "k >= 2990"}}, nil, &stats)
		if got := drain(t, NewHeapBatches(hf.Blind(), k, false)); len(got) != 10 || got[0][0].Int != 2990 {
			t.Fatalf("pass %d: kept %v, want k 2990..2999", pass, got)
		}
		pruned, scanned := stats.Pruned.Load(), stats.Scanned.Load()
		if pruned+scanned != int64(pages) || scanned != 1 {
			t.Fatalf("pass %d: pruned %d, scanned %d of %d pages: want all but the last pruned", pass, pruned, scanned, pages)
		}
	}
}
