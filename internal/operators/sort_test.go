package operators

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

// sortValueCorpus covers every comparator band plus the float edge
// cases the typed keys must reproduce: NaN, -0/+0, mixed numeric
// kinds, bools, strings, NULLs.
func sortValueCorpus() []storage.Value {
	return []storage.Value{
		storage.NullValue(),
		storage.IntValue(-3), storage.IntValue(0), storage.IntValue(7),
		storage.FloatValue(math.NaN()),
		storage.FloatValue(math.Copysign(0, -1)), storage.FloatValue(0),
		storage.FloatValue(-2.5), storage.FloatValue(7), storage.FloatValue(math.Inf(1)),
		storage.BoolValue(false), storage.BoolValue(true),
		storage.StringValue(""), storage.StringValue("a"), storage.StringValue("b"),
	}
}

// TestSortKeyMatchesCompare checks the extracted-key comparator is
// exactly storage.Compare over the full corpus cross product, except
// for NaN: Compare deems NaN equal to every number (non-transitive, so
// unusable for sorting); compareKeys instead pins NaN after all other
// numerics and equal only to itself.
func TestSortKeyMatchesCompare(t *testing.T) {
	vals := sortValueCorpus()
	isNaNNum := func(v storage.Value) bool {
		f, ok := v.AsFloat()
		return ok && math.IsNaN(f)
	}
	for _, a := range vals {
		for _, b := range vals {
			got := compareKeys(sortKeyOf(a), sortKeyOf(b))
			if isNaNNum(a) || isNaNNum(b) {
				var want int
				switch {
				case isNaNNum(a) && isNaNNum(b):
					want = 0
				case isNaNNum(a) && sortKeyOf(b).class == classNum:
					want = 1
				case isNaNNum(b) && sortKeyOf(a).class == classNum:
					want = -1
				default:
					want = storage.Compare(a, b) // cross-class: kind tag, same as Compare
				}
				if got != want {
					t.Errorf("compareKeys(%v, %v) = %d, want %d (NaN refinement)", a, b, got, want)
				}
				continue
			}
			want := storage.Compare(a, b)
			if got != want {
				t.Errorf("compareKeys(%v, %v) = %d, Compare = %d", a, b, got, want)
			}
		}
	}
}

// TestCompareKeysTransitive brute-forces transitivity over corpus
// triples — the property storage.Compare lacks (NaN) and the sort
// comparator must have. Bools and strings are checked in separate
// sub-corpora: a column holding bools AND strings AND numbers at once
// has a kind-tag cycle inherited from Compare (false < 7 < "a" <
// false), but the typed catalog cannot produce such a column, so the
// sort only ever sees NULLs plus one comparable class.
func TestCompareKeysTransitive(t *testing.T) {
	full := sortValueCorpus()
	sub := func(drop storage.ValueKind) []storage.Value {
		var out []storage.Value
		for _, v := range full {
			if v.Kind != drop {
				out = append(out, v)
			}
		}
		return out
	}
	for _, vals := range [][]storage.Value{sub(storage.KindBool), sub(storage.KindString)} {
		for _, a := range vals {
			for _, b := range vals {
				for _, c := range vals {
					ka, kb, kc := sortKeyOf(a), sortKeyOf(b), sortKeyOf(c)
					if compareKeys(ka, kb) <= 0 && compareKeys(kb, kc) <= 0 && compareKeys(ka, kc) > 0 {
						t.Fatalf("compareKeys not transitive on %v <= %v <= %v", a, b, c)
					}
				}
			}
		}
	}
}

// TestTotalTupleCompareIsTotal checks the tie-break comparator only
// reports 0 for content-identical rows (the property the byte-for-byte
// determinism guarantee rests on).
func TestTotalTupleCompareIsTotal(t *testing.T) {
	vals := sortValueCorpus()
	for i, a := range vals {
		for j, b := range vals {
			c := totalValueCompare(a, b)
			if cr := totalValueCompare(b, a); cr != -c {
				t.Fatalf("totalValueCompare not antisymmetric on %v/%v: %d vs %d", a, b, c, cr)
			}
			if i == j && c != 0 {
				t.Fatalf("totalValueCompare(%v, itself) = %d", a, c)
			}
			if i != j && c == 0 && a.String() != b.String() {
				// Distinct renderable contents must be distinguished.
				t.Fatalf("totalValueCompare(%v, %v) = 0 for distinct values", a, b)
			}
		}
	}
}

// sortedRef orders tuples by column col with a comparator written
// from the documented ORDER BY order, not with the package's: the key
// compares as storage.Compare does, except that NaN sorts after every
// other number and equals only NaN; DESC inverts that; ties break on
// the tie columns (nil: the whole row) value by value, kind tag first,
// then the payload, floats by their bit image.
func sortedRef(tuples []storage.Tuple, col int, desc bool, tie []int) []storage.Tuple {
	nan := func(v storage.Value) bool { f, ok := v.AsFloat(); return ok && math.IsNaN(f) }
	key := func(a, b storage.Value) int {
		_, an := a.AsFloat()
		_, bn := b.AsFloat()
		if an && bn && (nan(a) || nan(b)) {
			switch {
			case nan(a) && nan(b):
				return 0
			case nan(a):
				return 1
			}
			return -1
		}
		return storage.Compare(a, b)
	}
	content := func(a, b storage.Value) int {
		if a.Kind != b.Kind {
			return int(a.Kind) - int(b.Kind)
		}
		var less, greater bool
		switch a.Kind {
		case storage.KindInt:
			less, greater = a.Int < b.Int, a.Int > b.Int
		case storage.KindFloat:
			x, y := math.Float64bits(a.Float), math.Float64bits(b.Float)
			less, greater = x < y, x > y
		case storage.KindString:
			less, greater = a.Str < b.Str, a.Str > b.Str
		case storage.KindBool:
			less, greater = !a.Bool && b.Bool, a.Bool && !b.Bool
		}
		switch {
		case less:
			return -1
		case greater:
			return 1
		}
		return 0
	}
	if tie == nil && len(tuples) > 0 {
		tie = make([]int, len(tuples[0]))
		for k := range tie {
			tie[k] = k
		}
	}
	out := append([]storage.Tuple(nil), tuples...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if c := key(a[col], b[col]); c != 0 {
			return c < 0 != desc
		}
		for _, k := range tie {
			if c := content(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

func renderRows(rows []storage.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var parts []string
		for _, v := range r {
			parts = append(parts, fmt.Sprintf("%d:%s", v.Kind, v.String()))
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func requireSameRows(t *testing.T, label string, got, want []storage.Tuple) {
	t.Helper()
	g, w := renderRows(got), renderRows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, g[i], w[i])
		}
	}
}

// messyTuples builds n rows over a key column with heavy duplicates
// and float edge cases, plus a distinguishing payload column.
func messyTuples(n int) []storage.Tuple {
	rng := rand.New(rand.NewSource(42))
	keys := []storage.Value{
		storage.IntValue(1), storage.IntValue(1), storage.IntValue(2),
		storage.FloatValue(1), // ties the int 1 under Compare, differs in bytes
		storage.FloatValue(math.NaN()),
		storage.FloatValue(math.Copysign(0, -1)), storage.FloatValue(0),
		storage.NullValue(),
	}
	out := make([]storage.Tuple, n)
	for i := range out {
		out[i] = storage.Tuple{
			keys[rng.Intn(len(keys))],
			storage.IntValue(int64(rng.Intn(5))), // duplicated payloads too
			storage.IntValue(int64(i)),
		}
	}
	return out
}

// TestParallelSortMatchesSerial sweeps worker counts and batch sizes:
// the loser-tree merge of worker runs must emit byte-for-byte the
// documented order, duplicates and NaN/-0/NULL keys included — and,
// with tie columns named, that order in the columns it breaks ties on.
func TestParallelSortMatchesSerial(t *testing.T) {
	tuples := messyTuples(3000)
	for _, tie := range [][]int{nil, {1}} {
		for _, desc := range []bool{false, true} {
			want := sortedRef(tuples, 0, desc, tie)
			for _, w := range []int{1, 2, 4, 8} {
				for _, batch := range []int{1, 64, 1024} {
					got, err := ParallelSortBatches(NewSliceBatches(tuples, batch), 0, desc, tie,
						ParallelConfig{Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("tie=%v desc=%v w=%d batch=%d", tie, desc, w, batch)
					if tie != nil {
						// Rows tied on key and payload may come in any order of
						// their other columns: compare the tie column's sequence.
						requireSameRows(t, label, project(got, tie), project(want, tie))
						continue
					}
					requireSameRows(t, label, got, want)
				}
			}
		}
	}
}

// TestParallelTopKMatchesSortPrefix checks Top-K equals the first k of
// the full sort at every k regime (below / at / above the input size)
// and that k<=0 is empty without consuming the source.
func TestParallelTopKMatchesSortPrefix(t *testing.T) {
	tuples := messyTuples(500)
	for _, desc := range []bool{false, true} {
		full := sortedRef(tuples, 0, desc, nil)
		for _, k := range []int{1, 7, 100, len(tuples), len(tuples) + 50} {
			want := full
			if k < len(want) {
				want = want[:k]
			}
			for _, w := range []int{1, 3, 8} {
				got, err := ParallelTopKBatches(NewSliceBatches(tuples, 64), 0, desc, nil, k,
					ParallelConfig{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				requireSameRows(t, fmt.Sprintf("desc=%v k=%d w=%d", desc, k, w), got, want)
			}
		}
	}
	src := &countingBatches{src: NewSliceBatches(tuples, 64)}
	got, err := ParallelTopKBatches(src, 0, false, nil, 0, ParallelConfig{Workers: 4})
	if err != nil || len(got) != 0 {
		t.Fatalf("k=0: got %d rows, err %v", len(got), err)
	}
	if src.claims.Load() != 0 {
		t.Fatalf("k=0 consumed %d batches from the source", src.claims.Load())
	}
}

// TestSerialTopKMatchesSortLimit checks Top-K at one worker against
// the prefix of the sort at one worker, and that sort against the
// documented order, including the k=0 short-circuit.
func TestSerialTopKMatchesSortLimit(t *testing.T) {
	tuples := messyTuples(400)
	serial := ParallelConfig{Workers: 1}
	full, err := ParallelSortBatches(NewSliceBatches(tuples, 0), 0, false, nil, serial)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "sort", full, sortedRef(tuples, 0, false, nil))
	for _, k := range []int{0, 1, 13, 400, 999} {
		got, err := ParallelTopKBatches(NewSliceBatches(tuples, 0), 0, false, nil, k, serial)
		if err != nil {
			t.Fatal(err)
		}
		want := full
		if k < len(want) {
			want = want[:k]
		}
		requireSameRows(t, fmt.Sprintf("k=%d", k), got, want)
	}
}

// TestLoserTreeMergesRandomRuns exercises the tournament directly with
// uneven (and empty) runs.
func TestLoserTreeMergesRandomRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var all []storage.Tuple
	var runs []sortRun
	for i, size := range []int{0, 1, 17, 256, 3, 0, 40} {
		var r sortRun
		tuples := make([]storage.Tuple, size)
		for j := range tuples {
			tuples[j] = storage.Tuple{storage.IntValue(int64(rng.Intn(9))), storage.IntValue(int64(i*1000 + j))}
		}
		r.absorb(tuples, 0)
		r.sort(sortOrder{})
		runs = append(runs, r)
		all = append(all, tuples...)
	}
	want := sortedRef(all, 0, false, nil)
	var got []storage.Tuple
	lt := newLoserTree(runs, sortOrder{})
	for {
		tu, ok := lt.next()
		if !ok {
			break
		}
		got = append(got, tu)
	}
	requireSameRows(t, "loser tree", got, want)
}

// countingBatches counts claims on an underlying source.
type countingBatches struct {
	src    BatchSource
	claims atomic.Int64
}

func (c *countingBatches) NextBatch(b *Batch) (int, error) {
	c.claims.Add(1)
	return c.src.NextBatch(b)
}

// TestDrainParallelLimitStopsClaiming checks the cooperative LIMIT
// quota: once the quota is covered, workers stop claiming batches, so
// a LIMIT 10 over a huge source never drains it, and it returns exactly
// the quota.
func TestDrainParallelLimitStopsClaiming(t *testing.T) {
	const rows, batch, limit, workers = 100_000, 100, 10, 4
	tuples := make([]storage.Tuple, rows)
	for i := range tuples {
		tuples[i] = storage.Tuple{storage.IntValue(int64(i))}
	}
	src := &countingBatches{src: NewSliceBatches(tuples, batch)}
	got, err := DrainParallelBatches(src, ParallelConfig{Workers: workers, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != limit {
		t.Fatalf("drained %d rows, want %d", len(got), limit)
	}
	// Each worker may have one batch in flight when the quota fills;
	// anything near the full source means cancellation did not work.
	maxClaims := int64(2*workers + limit/batch + 1)
	if c := src.claims.Load(); c > maxClaims {
		t.Fatalf("source claimed %d batches, want <= %d (early termination broken)", c, maxClaims)
	}
}
