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

// TestKernelMatchesBoxedExhaustive runs every (row value × literal ×
// operator) combination through filterSel and the boxed rule.
func TestKernelMatchesBoxedExhaustive(t *testing.T) {
	vals := hardValues()
	for _, lit := range vals {
		for _, oc := range cmpOps {
			p := compilePred(ColPred{Col: 0, Op: oc.op, Lit: lit})
			tuples := make([]storage.Tuple, len(vals))
			sel := make([]int32, len(vals))
			for i, v := range vals {
				tuples[i] = storage.Tuple{v}
				sel[i] = int32(i)
			}
			out := p.filterSel(tuples, sel)
			kept := map[int32]bool{}
			for _, i := range out {
				kept[i] = true
			}
			for i, v := range vals {
				want := boxedKeep(oc.op, v, lit)
				if kept[int32(i)] != want {
					t.Errorf("%v %s %v: kernel=%v boxed=%v", v, oc.name, lit, kept[int32(i)], want)
				}
			}
		}
	}
	for _, op := range []KernelOp{KernIsNull, KernNotNull} {
		p := compilePred(ColPred{Col: 0, Op: op})
		for _, v := range vals {
			out := p.filterSel([]storage.Tuple{{v}}, []int32{0})
			if (len(out) == 1) != boxedKeep(op, v, storage.Value{}) {
				t.Errorf("nulltest %d on %v: kernel=%v", op, v, len(out) == 1)
			}
		}
	}
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

// TestFilterKernelApplyCompacts: multi-conjunct Apply keeps exactly
// the rows passing all conjuncts, in input order, at any batch size,
// and keeps agreeing after enough batches to trigger reordering.
func TestFilterKernelApplyCompacts(t *testing.T) {
	preds := []ColPred{
		{Col: 0, Op: KernGE, Lit: storage.IntValue(10), Name: "a >= 10"},
		{Col: 1, Op: KernLT, Lit: storage.StringValue("m"), Name: "b < 'm'"},
		{Col: 0, Op: KernNE, Lit: storage.IntValue(13), Name: "a != 13"},
	}
	mk := func() *FilterKernel { return NewFilterKernel(preds, nil, nil) }
	gen := func(n, off int) []storage.Tuple {
		out := make([]storage.Tuple, n)
		for i := range out {
			s := "z"
			if (i+off)%3 == 0 {
				s = "a"
			}
			out[i] = storage.Tuple{storage.IntValue(int64((i + off) % 20)), storage.StringValue(s)}
		}
		return out
	}
	ref := func(ts []storage.Tuple) []string {
		var out []string
		for _, tu := range ts {
			if boxedKeep(KernGE, tu[0], storage.IntValue(10)) &&
				boxedKeep(KernLT, tu[1], storage.StringValue("m")) &&
				boxedKeep(KernNE, tu[0], storage.IntValue(13)) {
				out = append(out, fmt.Sprint(tu))
			}
		}
		return out
	}
	for _, size := range []int{1, 7, 64, 1024} {
		k := mk()
		b := &Batch{}
		// 100 batches crosses the reorder cadence several times.
		for round := 0; round < 100; round++ {
			in := gen(size, round)
			b.Tuples = append(b.Tuples[:0], in...)
			k.Apply(b)
			want := ref(in)
			if len(b.Tuples) != len(want) {
				t.Fatalf("size %d round %d: %d rows, want %d", size, round, len(b.Tuples), len(want))
			}
			for i, tu := range b.Tuples {
				if fmt.Sprint(tu) != want[i] {
					t.Fatalf("size %d round %d row %d: %v want %s", size, round, i, tu, want[i])
				}
			}
		}
	}
}

// TestFilterKernelBoxedResidual: residual predicate runs after the
// kernels on the compacted batch.
func TestFilterKernelBoxedResidual(t *testing.T) {
	k := NewFilterKernel(
		[]ColPred{{Col: 0, Op: KernGT, Lit: storage.IntValue(5), Name: "a > 5"}},
		func(tu storage.Tuple) bool { return tu[0].Int%2 == 0 },
		nil)
	b := &Batch{}
	for i := 0; i < 20; i++ {
		b.Tuples = append(b.Tuples, storage.Tuple{storage.IntValue(int64(i))})
	}
	k.Apply(b)
	for _, tu := range b.Tuples {
		if tu[0].Int <= 5 || tu[0].Int%2 != 0 {
			t.Fatalf("row %v survived kernel+residual", tu)
		}
	}
	if len(b.Tuples) != 7 { // 6,8,10,12,14,16,18
		t.Fatalf("%d rows, want 7", len(b.Tuples))
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
// filtering of a 1024-row batch must stay within TestAllocBudgets's
// budget (the selection vector is retained on the batch).
func BenchmarkFilterBatch(b *testing.B) {
	op := filterBatchOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// filterBatchOp returns BenchmarkFilterBatch's op: one kernel pass over
// a fresh copy of a 1024-row batch.
func filterBatchOp() func() {
	const n = 1024
	base := make([]storage.Tuple, n)
	arena := make(storage.Tuple, 0, 2*n)
	for i := 0; i < n; i++ {
		start := len(arena)
		arena = append(arena, storage.IntValue(int64(i%100)), storage.FloatValue(float64(i)))
		base[i] = arena[start:len(arena):len(arena)]
	}
	k := NewFilterKernel([]ColPred{
		{Col: 0, Op: KernLT, Lit: storage.IntValue(50), Name: "a < 50"},
		{Col: 1, Op: KernGE, Lit: storage.FloatValue(10), Name: "b >= 10"},
	}, nil, nil)
	batch := &Batch{Tuples: make([]storage.Tuple, 0, n)}
	work := make([]storage.Tuple, n)
	return func() {
		copy(work, base)
		batch.Tuples = work[:n]
		k.Apply(batch)
	}
}

// Steady-state vectorized filtering of a 1024-row batch (measured 0:
// the selection vector lives on the batch and is reused; headroom for
// the occasional conjunct-reorder copy).
const filterAllocBudget = 2

// TestAllocBudgets holds BenchmarkFilterBatch to its allocation budget.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Skip(t)
	allocbudget.Measure(t, "FilterBatch", 100, filterBatchOp()).Allocs(filterAllocBudget)
}
