package operators

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

// newHeap creates the heap file name in a DB of its own, over fresh
// MemDisks with a pool of `frames` buffer frames.
func newHeap(t testing.TB, name string, frames int) (*storage.DB, *storage.HeapFile) {
	t.Helper()
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual, BufferFrames: frames})
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
	db, hf := newHeap(t, "t", 64)
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{storage.IntValue(int64(i)), storage.StringValue(fmt.Sprintf("v%d", i))}
	}
	load(t, db, hf, rows...)
	return db, hf
}

// TestBatchHeapScanMatchesSerial: draining the batch-native page scan
// must equal the Volcano heap scan exactly — including after deletes
// punch holes in the slot directories.
func TestBatchHeapScanMatchesSerial(t *testing.T) {
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
	want, err := Drain(NewHeapScan(hf.Blind()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DrainBatches(NewBatchHeapScan(hf.Blind()))
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

// TestBatchAdapterRoundTrip: a Volcano heap scan behind IterBatches
// must serve the batch-native scan's rows in its order at any batch
// size, close its input at exhaustion, and stay exhausted.
func TestBatchAdapterRoundTrip(t *testing.T) {
	_, hf := batchHeap(t, 300)
	want, err := DrainBatches(NewBatchHeapScan(hf.Blind()))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7, 0} {
		scan := NewHeapScan(hf.Blind())
		ib := NewIterBatches(scan, size)
		b := GetBatch()
		var got []storage.Tuple
		for {
			n, err := ib.NextBatch(b)
			if err != nil {
				t.Fatalf("size=%d: %v", size, err)
			}
			if n == 0 {
				break
			}
			if size > 0 && n > size {
				t.Fatalf("size=%d: batch of %d rows", size, n)
			}
			got = append(got, b.Tuples...)
		}
		if n, err := ib.NextBatch(b); n != 0 || err != nil {
			t.Fatalf("size=%d: claim after exhaustion = %d, %v", size, n, err)
		}
		PutBatch(b)
		if scan.open || scan.buf != nil {
			t.Fatalf("size=%d: input left open at exhaustion", size)
		}
		if len(got) != len(want) {
			t.Fatalf("size=%d: %d rows, want %d", size, len(got), len(want))
		}
		for j := range got {
			if got[j][0].Int != want[j][0].Int || got[j][1].Str != want[j][1].Str {
				t.Fatalf("size=%d row %d: %v want %v", size, j, got[j], want[j])
			}
		}
	}
}

// TestBatchHeapScanReopen: Open re-snapshots the page list, so a
// reopened scan sees rows inserted after the first drain.
func TestBatchHeapScanReopen(t *testing.T) {
	db, hf := batchHeap(t, 100)
	scan := NewBatchHeapScan(hf.Blind())
	first, err := DrainBatches(scan)
	if err != nil {
		t.Fatal(err)
	}
	var more []storage.Tuple
	for i := int64(100); i < 700; i++ { // forces new pages
		more = append(more, storage.Tuple{storage.IntValue(i), storage.StringValue("x")})
	}
	load(t, db, hf, more...)
	second, err := DrainBatches(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 100 || len(second) != 700 {
		t.Fatalf("first=%d second=%d", len(first), len(second))
	}
}

// TestBatchRetentionAcrossRecycle: tuples handed out of a batch scan
// must stay valid after their batch is recycled and refilled (the
// arena-ownership contract consumers like hash-join builds rely on).
func TestBatchRetentionAcrossRecycle(t *testing.T) {
	_, hf := batchHeap(t, 600)
	scan := NewBatchHeapScan(hf.Blind())
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
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
	scan.Close()
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
	all, err := Drain(NewHeapScan(hf.Blind()))
	if err != nil {
		t.Fatal(err)
	}
	var want []storage.Tuple
	for _, tp := range all {
		if pred(tp) {
			want = append(want, storage.Tuple{tp[1], tp[0]})
		}
	}
	kept, err := DrainParallelBatches(NewFilterBatches(NewHeapBatches(hf.Blind()), pred), ParallelConfig{Workers: 4})
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

// DrainBatches runs a BatchIterator to completion and returns all
// tuples. Close errors are joined with the drain error, not discarded.
func DrainBatches(bi BatchIterator) (out []storage.Tuple, err error) {
	if err := bi.Open(); err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, bi.Close()) }()
	b := GetBatch()
	defer PutBatch(b)
	for {
		n, nerr := bi.NextBatch(b)
		if nerr != nil || n == 0 {
			return out, nerr
		}
		out = append(out, b.Tuples...)
	}
}

// TestBatchHeapScanWithRIDs: a scan asked for RIDs hands out, beside
// every tuple, the place Get finds that tuple — with no kernel, and
// with one compacting both columns (conjunct and boxed residual), and
// over slot directories with holes. Without the ask the column is empty.
func TestBatchHeapScanWithRIDs(t *testing.T) {
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
	for _, tc := range []struct {
		name   string
		kernel *FilterKernel
		want   int
	}{
		{"no kernel", nil, 400},
		{"kernel", NewFilterKernel([]ColPred{{Col: 0, Op: KernGE, Lit: storage.IntValue(250)}}, odd, nil), 100},
	} {
		bs := NewBatchHeapScan(hf.Blind())
		bs.Kernel, bs.WithRIDs = tc.kernel, true
		if err := bs.Open(); err != nil {
			t.Fatal(err)
		}
		b := GetBatch()
		got := 0
		for {
			n, err := bs.NextBatch(b)
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
				if tc.kernel != nil && (tu[0].Int < 250 || !odd(tu)) {
					t.Fatalf("%s: %v passed the filter", tc.name, tu)
				}
			}
			got += n
		}
		PutBatch(b)
		bs.Close()
		if got != tc.want {
			t.Fatalf("%s: %d rows, want %d", tc.name, got, tc.want)
		}
	}
	bs := NewBatchHeapScan(hf.Blind())
	if err := bs.Open(); err != nil {
		t.Fatal(err)
	}
	b := GetBatch()
	defer PutBatch(b)
	if n, err := bs.NextBatch(b); err != nil || n == 0 || len(b.RIDs) != 0 {
		t.Fatalf("unasked scan: n=%d err=%v RIDs=%d", n, err, len(b.RIDs))
	}
}
