package operators

import (
	"fmt"
	"math"
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

// newHeap creates the heap file name in a DB of its own, over fresh
// MemDisks.
func newHeap(t testing.TB, name string) (*storage.DB, *storage.HeapFile) {
	t.Helper()
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	hf, err := db.CreateFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return db, hf
}

// load inserts rows into hf in one committed transaction and returns
// their RIDs.
func load(t testing.TB, db *storage.DB, hf *storage.HeapFile, rows ...storage.Tuple) []storage.RID {
	t.Helper()
	tx := db.Txns().Begin()
	rids := make([]storage.RID, len(rows))
	for i, tu := range rows {
		var err error
		if rids[i], err = tx.Insert(hf, tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return rids
}

// batchHeap builds a heap file with n sequential rows (id, "v<id>").
func batchHeap(t *testing.T, n int) (*storage.DB, *storage.HeapFile) {
	t.Helper()
	db, hf := newHeap(t, "t")
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{storage.IntValue(int64(i)), storage.StringValue(fmt.Sprintf("v%d", i))}
	}
	load(t, db, hf, rows...)
	return db, hf
}

// TestHeapBatchesMatchesSerial: draining the page source at one worker
// must equal the view's row-at-a-time scan exactly — including after
// deletes punch holes in the slot directories.
func TestHeapBatchesMatchesSerial(t *testing.T) {
	_, hf := batchHeap(t, 500)
	// Tombstone a spread of slots, including page boundaries.
	i := 0
	var kill []storage.RID
	hf.Blind().Scan(func(rid storage.RID, _ storage.Tuple) bool {
		if i%7 == 0 || i == 499 {
			kill = append(kill, rid)
		}
		i++
		return true
	})
	for _, rid := range kill {
		if err := hf.Delete(rid); err != nil {
			t.Fatal(err)
		}
	}
	want, err := hf.Blind().All()
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainSerial(NewHeapBatches(hf.Blind(), nil, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	// Both scan in page/slot order, so equality is positional.
	for j := range got {
		if got[j][0].Int != want[j][0].Int || got[j][1].Str != want[j][1].Str {
			t.Fatalf("row %d: %v want %v", j, got[j], want[j])
		}
	}
}

// TestHeapBatchesSnapshotsPages: a source serves the pages the file
// had when it was made, so only a source made after an insert that
// forces new pages sees all of it.
func TestHeapBatchesSnapshotsPages(t *testing.T) {
	db, hf := batchHeap(t, 100)
	first, err := drainSerial(NewHeapBatches(hf.Blind(), nil, false))
	if err != nil {
		t.Fatal(err)
	}
	early := NewHeapBatches(hf.Blind(), nil, false)
	var more []storage.Tuple
	for i := int64(100); i < 700; i++ { // forces new pages
		more = append(more, storage.Tuple{storage.IntValue(i), storage.StringValue("x")})
	}
	load(t, db, hf, more...)
	stale, err := drainSerial(early)
	if err != nil {
		t.Fatal(err)
	}
	second, err := drainSerial(NewHeapBatches(hf.Blind(), nil, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 100 || len(stale) >= 700 || len(second) != 700 {
		t.Fatalf("first=%d stale=%d second=%d", len(first), len(stale), len(second))
	}
}

// TestBatchRetentionAcrossRecycle: tuples handed out of a batch scan
// must stay valid after their batch is recycled and refilled (the
// arena-ownership contract consumers like hash-join builds rely on).
func TestBatchRetentionAcrossRecycle(t *testing.T) {
	_, hf := batchHeap(t, 600)
	scan := NewHeapBatches(hf.Blind(), nil, false)
	b := GetBatch()
	var retained []storage.Tuple
	for {
		n, err := scan.NextBatch(b) // refills over the same header slice
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		retained = append(retained, b.Tuples...)
	}
	PutBatch(b)
	seen := map[int64]bool{}
	for _, tp := range retained {
		if tp[1].Str != fmt.Sprintf("v%d", tp[0].Int) {
			t.Fatalf("corrupted retained tuple %v", tp)
		}
		seen[tp[0].Int] = true
	}
	if len(seen) != 600 {
		t.Fatalf("retained %d distinct ids, want 600", len(seen))
	}
}

// TestBatchFilterProjectMatchSerial compares the in-place batch filter
// and the arena projection against a row-at-a-time loop over the scan.
func TestBatchFilterProjectMatchSerial(t *testing.T) {
	_, hf := batchHeap(t, 300)
	pred := func(tp storage.Tuple) bool { return tp[0].Int%3 == 0 }
	all, err := hf.Blind().All()
	if err != nil {
		t.Fatal(err)
	}
	var want []storage.Tuple
	for _, tp := range all {
		if pred(tp) {
			want = append(want, storage.Tuple{tp[1], tp[0]})
		}
	}
	kept, err := DrainParallelBatches(NewFilterBatches(NewHeapBatches(hf.Blind(), nil, false), pred), ParallelConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ProjectTuples(nil, kept, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, want)

	if _, err := ProjectTuples(nil, kept, []int{9}); err == nil {
		t.Fatal("out-of-range projection should error")
	}
}

// TestJoinKeyEdgeCases pins the struct-key semantics to the old
// string-key behaviour: NaN joins NaN, -0 joins +0, numeric kinds
// join by float image, NULL never joins, and strings never collide
// with numbers.
func TestJoinKeyEdgeCases(t *testing.T) {
	nan := storage.FloatValue(math.NaN())
	k1, ok1 := joinKeyOf(nan)
	k2, ok2 := joinKeyOf(nan)
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("NaN keys differ: %v %v", k1, k2)
	}
	neg, okn := joinKeyOf(storage.FloatValue(math.Copysign(0, -1)))
	pos, okp := joinKeyOf(storage.IntValue(0))
	if !okn || !okp || neg != pos || neg.hash() != pos.hash() {
		t.Fatalf("-0 and +0 keys differ: %v %v", neg, pos)
	}
	if _, ok := joinKeyOf(storage.Value{Kind: storage.KindNull}); ok {
		t.Fatal("NULL must not produce a join key")
	}
	num, _ := joinKeyOf(storage.IntValue(7))
	str, _ := joinKeyOf(storage.StringValue("7"))
	if num == str {
		t.Fatal("number 7 and string \"7\" must not join")
	}
}

// drainSerial drains src on the calling goroutine, so a source whose
// claims follow a fixed order serves its tuples in that order.
func drainSerial(src BatchSource) (out []storage.Tuple, err error) {
	b := GetBatch()
	defer PutBatch(b)
	for {
		n, nerr := src.NextBatch(b)
		if nerr != nil || n == 0 {
			return out, nerr
		}
		out = append(out, b.Tuples...)
	}
}

// TestHeapBatchesWithRIDs: a source asked for RIDs hands out, beside
// every tuple, the place Get finds that tuple — with no filter, with a
// kernel compacting both columns (conjunct and boxed residual), and
// under the boxed FilterBatches, over slot directories with holes.
// Without the ask the column is empty.
func TestHeapBatchesWithRIDs(t *testing.T) {
	_, hf := batchHeap(t, 500)
	var kill []storage.RID
	hf.Blind().Scan(func(rid storage.RID, tu storage.Tuple) bool {
		if tu[0].Int%5 == 0 {
			kill = append(kill, rid)
		}
		return true
	})
	for _, rid := range kill {
		if err := hf.Delete(rid); err != nil {
			t.Fatal(err)
		}
	}
	odd := func(tu storage.Tuple) bool { return tu[0].Int%2 == 1 }
	upperOdd := func(tu storage.Tuple) bool { return tu[0].Int >= 250 && odd(tu) }
	for _, tc := range []struct {
		name     string
		src      BatchSource
		filtered bool
		want     int
	}{
		{"no filter", NewHeapBatches(hf.Blind(), nil, true), false, 400},
		{"kernel", NewHeapBatches(hf.Blind(),
			NewFilterKernel([]ColPred{{Col: 0, Op: KernGE, Lit: storage.IntValue(250)}}, odd, nil), true), true, 100},
		{"boxed", NewFilterBatches(NewHeapBatches(hf.Blind(), nil, true), upperOdd), true, 100},
	} {
		b := GetBatch()
		got := 0
		for {
			n, err := tc.src.NextBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			if len(b.RIDs) != n {
				t.Fatalf("%s: %d RIDs beside %d tuples", tc.name, len(b.RIDs), n)
			}
			for i, tu := range b.Tuples {
				at, err := hf.Blind().Get(b.RIDs[i])
				if err != nil || at[0].Int != tu[0].Int {
					t.Fatalf("%s: tuple %v paired with %v, which holds %v (%v)", tc.name, tu, b.RIDs[i], at, err)
				}
				if tc.filtered && !upperOdd(tu) {
					t.Fatalf("%s: %v passed the filter", tc.name, tu)
				}
			}
			got += n
		}
		PutBatch(b)
		if got != tc.want {
			t.Fatalf("%s: %d rows, want %d", tc.name, got, tc.want)
		}
	}
	b := GetBatch()
	defer PutBatch(b)
	if n, err := NewHeapBatches(hf.Blind(), nil, false).NextBatch(b); err != nil || n == 0 || len(b.RIDs) != 0 {
		t.Fatalf("unasked scan: n=%d err=%v RIDs=%d", n, err, len(b.RIDs))
	}
}
