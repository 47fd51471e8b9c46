package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/adm-project/adm/internal/allocbudget"
)

// --------------------------------------------------------------------------
// Record codec.

func TestTupleRoundTrip(t *testing.T) {
	tu := Tuple{
		IntValue(-42), FloatValue(3.14), StringValue("hello, 世界"),
		BoolValue(true), NullValue(), IntValue(1 << 40), StringValue(""),
	}
	back, err := DecodeTuple(EncodeTuple(tu))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tu) {
		t.Fatalf("len = %d", len(back))
	}
	for i := range tu {
		if !Equal(back[i], tu[i]) || back[i].Kind != tu[i].Kind {
			t.Errorf("field %d: %v vs %v", i, back[i], tu[i])
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{0, 2, byte(KindInt)},          // truncated varint
		{0, 1, byte(KindFloat), 1, 2},  // short float
		{0, 1, byte(KindString), 0, 0}, // short length
		{0, 1, byte(KindString), 0, 0, 0, 9, 'a'}, // short body
		{0, 1, 99}, // unknown kind
		append(EncodeTuple(Tuple{IntValue(1)}), 0xFF), // trailing bytes
	}
	for i, b := range cases {
		if _, err := DecodeTuple(b); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntValue(1), IntValue(2), -1},
		{IntValue(2), FloatValue(1.5), 1},
		{FloatValue(2), IntValue(2), 0},
		{StringValue("a"), StringValue("b"), -1},
		{NullValue(), IntValue(0), -1},
		{NullValue(), NullValue(), 0},
		{BoolValue(true), BoolValue(false), 1},
		{StringValue("x"), IntValue(5), 1}, // kind-tag order: string > int
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if IntValue(1).String() != "1" || NullValue().String() != "NULL" ||
		BoolValue(true).String() != "true" || FloatValue(2.5).String() != "2.5" ||
		StringValue("s").String() != "s" {
		t.Error("String renderings wrong")
	}
	if !NullValue().IsNull() || IntValue(0).IsNull() {
		t.Error("IsNull wrong")
	}
}

// Property: encode/decode is the identity on arbitrary tuples.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(ints []int64, strs []string, floats []float64) bool {
		var tu Tuple
		for _, v := range ints {
			tu = append(tu, IntValue(v))
		}
		for _, s := range strs {
			tu = append(tu, StringValue(s))
		}
		for _, fl := range floats {
			tu = append(tu, FloatValue(fl))
		}
		back, err := DecodeTuple(EncodeTuple(tu))
		if err != nil || len(back) != len(tu) {
			return false
		}
		for i := range tu {
			if back[i].Kind != tu[i].Kind {
				return false
			}
			if tu[i].Kind == KindFloat {
				// NaN != NaN under Compare; compare bits via String.
				if fmt.Sprint(back[i].Float) != fmt.Sprint(tu[i].Float) {
					return false
				}
			} else if !Equal(back[i], tu[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --------------------------------------------------------------------------
// Pages.

func TestPageInsertGetDelete(t *testing.T) {
	p := NewPage()
	s1, err := pageInsert(p, []byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := pageInsert(p, []byte("beta"))
	if s1 == s2 {
		t.Fatal("slot reuse")
	}
	b, err := p.Get(s1)
	if err != nil || string(b) != "alpha" {
		t.Fatalf("get = %q %v", b, err)
	}
	if err := pageDelete(p, s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s1); !errors.Is(err, ErrSlotDeleted) {
		t.Fatalf("deleted get: %v", err)
	}
	if err := pageDelete(p, s1); !errors.Is(err, ErrSlotDeleted) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := p.Get(99); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("bad slot: %v", err)
	}
	// s2 unaffected.
	if b, _ := p.Get(s2); string(b) != "beta" {
		t.Fatal("neighbour damaged")
	}
}

func TestPageFull(t *testing.T) {
	p := NewPage()
	rec := make([]byte, 100)
	inserted := 0
	for {
		if _, err := pageInsert(p, rec); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatal(err)
			}
			break
		}
		inserted++
	}
	// 4096 bytes, ~104 bytes/record incl. slot: expect ~39.
	if inserted < 35 || inserted > 41 {
		t.Fatalf("inserted %d records of 100B", inserted)
	}
}

func TestPageCompactPreservesSlots(t *testing.T) {
	p := NewPage()
	var slots []int
	for i := 0; i < 10; i++ {
		s, _ := pageInsert(p, []byte(fmt.Sprintf("rec-%d", i)))
		slots = append(slots, s)
	}
	for i := 0; i < 10; i += 2 {
		_ = pageDelete(p, slots[i])
	}
	liveBefore := p.LiveBytes()
	freeBefore := p.FreeSpace()
	p.Compact()
	if p.LiveBytes() != liveBefore {
		t.Fatal("compact lost bytes")
	}
	if p.FreeSpace() <= freeBefore {
		t.Fatalf("compact did not reclaim: %d <= %d", p.FreeSpace(), freeBefore)
	}
	for i := 1; i < 10; i += 2 {
		b, err := p.Get(slots[i])
		if err != nil || string(b) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("slot %d after compact: %q %v", slots[i], b, err)
		}
	}
	for i := 0; i < 10; i += 2 {
		if p.Live(slots[i]) {
			t.Fatal("tombstone resurrected")
		}
	}
}

// TestPageMutateInPlace: SetXmaxWith stamps a record's Xmax in place
// and logs the stamped record before it lands; a failed append and a
// refusing decide both leave the page as it was.
func TestPageMutateInPlace(t *testing.T) {
	p := NewPage()
	tu := Tuple{IntValue(1), StringValue("aaaa")}
	s, _ := pageInsert(p, EncodeRecord(tu, Version{Xmin: 3}))
	version := func() Version {
		t.Helper()
		b, err := p.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		got, v, err := DecodeRecord(b)
		if err != nil || len(got) != 2 || got[1].Str != "aaaa" {
			t.Fatalf("record reads %v (%v)", got, err)
		}
		return v
	}
	var logged []byte
	logTo := func(rec []byte) (uint64, error) { logged = rec; return 0, nil }
	if err := p.SetXmaxWith(s, 7, nil, logTo); err != nil {
		t.Fatal(err)
	}
	if v := version(); v != (Version{Xmin: 3, Xmax: 7}) {
		t.Fatalf("stamped version %+v", v)
	}
	if _, v, _ := DecodeRecord(logged); v != (Version{Xmin: 3, Xmax: 7}) {
		t.Fatalf("logged version %+v", v)
	}
	failLog := func([]byte) (uint64, error) { return 0, errors.New("log down") }
	if err := p.SetXmaxWith(s, 9, nil, failLog); err == nil {
		t.Fatal("a stamp whose log append failed succeeded")
	}
	refuse := func(v Version) error {
		if v.Xmax != 7 {
			t.Errorf("decide saw %+v", v)
		}
		return ErrWriteConflict
	}
	if err := p.SetXmaxWith(s, 9, refuse, noLog[[]byte]); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("a refused stamp returned %v", err)
	}
	if v := version(); v != (Version{Xmin: 3, Xmax: 7}) {
		t.Fatalf("failed stamps changed the version to %+v", v)
	}
}

// --------------------------------------------------------------------------
// Heap file.

// newHeap opens a DB over fresh MemDisks and creates one heap file in
// it.
func newHeap(t testing.TB) *HeapFile {
	t.Helper()
	db, err := Open(NewMemDisk(), NewMemDisk(), DBOptions{Sync: SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// insertRow inserts tu into h in a transaction of its own and commits
// it.
func insertRow(h *HeapFile, tu Tuple) (RID, error) {
	tx := h.db.Txns().Begin()
	rid, err := tx.Insert(h, tu)
	if err != nil {
		return RID{}, errors.Join(err, tx.Rollback())
	}
	return rid, tx.Commit()
}

// noLog is the logging hook of a page mutated outside any file.
func noLog[T any](T) (uint64, error) { return 0, nil }

// pageInsert and pageDelete mutate a page on its own, unlogged.
func pageInsert(p *Page, rec []byte) (int, error) { return p.InsertWith(rec, noLog[int]) }
func pageDelete(p *Page, slot int) error {
	return p.DeleteWith(slot, func() (uint64, error) { return 0, nil })
}

func TestHeapInsertGetDelete(t *testing.T) {
	h := newHeap(t)
	rid, err := insertRow(h, Tuple{IntValue(1), StringValue("x")})
	if err != nil {
		t.Fatal(err)
	}
	tu, err := h.Blind().Get(rid)
	if err != nil || tu[0].Int != 1 || tu[1].Str != "x" {
		t.Fatalf("get = %v %v", tu, err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Blind().Get(rid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted: %v", err)
	}
	if err := h.Delete(rid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if h.Count() != 0 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHeapSpansPages(t *testing.T) {
	h := newHeap(t)
	long := StringValue(string(make([]byte, 500)))
	for i := 0; i < 50; i++ {
		if _, err := insertRow(h, Tuple{IntValue(int64(i)), long}); err != nil {
			t.Fatal(err)
		}
	}
	if h.Pages() < 2 {
		t.Fatalf("pages = %d, want multi-page file", h.Pages())
	}
	all, err := h.Blind().All()
	if err != nil || len(all) != 50 {
		t.Fatalf("all = %d %v", len(all), err)
	}
	seen := map[int64]bool{}
	for _, tu := range all {
		seen[tu[0].Int] = true
	}
	if len(seen) != 50 {
		t.Fatal("duplicates or losses in scan")
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	h := newHeap(t)
	for i := 0; i < 10; i++ {
		_, _ = insertRow(h, Tuple{IntValue(int64(i))})
	}
	n := 0
	_ = h.Blind().Scan(func(RID, Tuple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("scanned %d", n)
	}
}

func TestHeapOversizeRecord(t *testing.T) {
	h := newHeap(t)
	if _, err := insertRow(h, Tuple{StringValue(string(make([]byte, PageSize)))}); err == nil {
		t.Fatal("oversize insert must fail")
	}
}

func TestHeapVacuum(t *testing.T) {
	h := newHeap(t)
	var rids []RID
	for i := 0; i < 20; i++ {
		rid, _ := insertRow(h, Tuple{IntValue(int64(i)), StringValue("payload")})
		rids = append(rids, rid)
	}
	for i := 0; i < 20; i += 2 {
		_ = h.Delete(rids[i])
	}
	// Checkpoints on both sides: the compacted page must be flushed,
	// not scrubbed as unlike its frame.
	if err := h.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := h.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if err := h.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := h.db.Stats().Buffer; st.QuarantinedPages != 0 {
		t.Fatalf("vacuumed page quarantined: %+v", st)
	}
	for i := 1; i < 20; i += 2 {
		tu, err := h.Blind().Get(rids[i])
		if err != nil || tu[0].Int != int64(i) {
			t.Fatalf("rid %v after vacuum: %v %v", rids[i], tu, err)
		}
	}
}

// Property: a heap file holds exactly the multiset of inserted-minus-
// deleted tuples, under any interleaving.
func TestHeapContentsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := newHeap(t)
		want := map[int64]int{}
		var live []RID
		var liveKeys []int64
		for i, op := range ops {
			if op%3 != 0 || len(live) == 0 { // insert
				k := int64(i)
				rid, err := insertRow(h, Tuple{IntValue(k)})
				if err != nil {
					return false
				}
				live = append(live, rid)
				liveKeys = append(liveKeys, k)
				want[k]++
			} else { // delete
				j := int(op/3) % len(live)
				if err := h.Delete(live[j]); err != nil {
					return false
				}
				want[liveKeys[j]]--
				live = append(live[:j], live[j+1:]...)
				liveKeys = append(liveKeys[:j], liveKeys[j+1:]...)
			}
		}
		got := map[int64]int{}
		all, err := h.Blind().All()
		if err != nil {
			return false
		}
		for _, tu := range all {
			got[tu[0].Int]++
		}
		for k, c := range want {
			if c != 0 && got[k] != c {
				return false
			}
			if c == 0 && got[k] != 0 {
				return false
			}
		}
		return h.Count() == len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --------------------------------------------------------------------------
// B-tree.

func TestBTreeInsertSearch(t *testing.T) {
	bt := NewBTree("idx")
	for i := 0; i < 1000; i++ {
		bt.Insert(IntValue(int64(i%100)), RID{Page: PageID(i), Slot: i})
	}
	if bt.Len() != 1000 {
		t.Fatalf("len = %d", bt.Len())
	}
	rids := bt.Search(IntValue(42))
	if len(rids) != 10 {
		t.Fatalf("postings = %d", len(rids))
	}
	if bt.Search(IntValue(1000)) != nil {
		t.Fatal("phantom key")
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	if bt.Depth() < 2 {
		t.Fatalf("depth = %d, want split tree", bt.Depth())
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree("idx")
	for i := 0; i < 500; i++ {
		bt.Insert(IntValue(int64(i)), RID{Page: PageID(i)})
	}
	var keys []int64
	bt.Range(IntValue(100), IntValue(110), func(k Value, _ RID) bool {
		keys = append(keys, k.Int)
		return true
	})
	if len(keys) != 11 || keys[0] != 100 || keys[10] != 110 {
		t.Fatalf("range = %v", keys)
	}
	// Early stop.
	n := 0
	bt.Range(IntValue(0), IntValue(499), func(Value, RID) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop: %d", n)
	}
	// Empty range.
	bt.Range(IntValue(1000), IntValue(2000), func(Value, RID) bool {
		t.Fatal("phantom range hit")
		return false
	})
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree("idx")
	r1, r2 := RID{Page: 1}, RID{Page: 2}
	bt.Insert(IntValue(5), r1)
	bt.Insert(IntValue(5), r2)
	if !bt.Delete(IntValue(5), r1) {
		t.Fatal("delete failed")
	}
	if bt.Delete(IntValue(5), r1) {
		t.Fatal("double delete succeeded")
	}
	if got := bt.Search(IntValue(5)); len(got) != 1 || got[0] != r2 {
		t.Fatalf("remaining = %v", got)
	}
	if !bt.Delete(IntValue(5), r2) {
		t.Fatal("second delete failed")
	}
	if bt.Search(IntValue(5)) != nil {
		t.Fatal("key survived")
	}
	if bt.Delete(IntValue(99), r1) {
		t.Fatal("deleting absent key succeeded")
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeStringKeys(t *testing.T) {
	bt := NewBTree("names")
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, w := range words {
		bt.Insert(StringValue(w), RID{Page: PageID(i)})
	}
	var got []string
	bt.Range(StringValue("a"), StringValue("z"), func(k Value, _ RID) bool {
		got = append(got, k.Str)
		return true
	})
	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
}

// TestBTreeNaNKeys: NaN is one key of its own, after every number and
// before every string, whatever order the keys arrive in — Compare
// calls NaN equal to every number, so a tree ordered by it filed NaN,
// 5 and 7 under one key and answered Search(5) with all three. 2 and
// 2.0 stay one key, as do NaN payloads.
func TestBTreeNaNKeys(t *testing.T) {
	nan, five, seven := FloatValue(math.NaN()), IntValue(5), FloatValue(7)
	orders := [][]Value{{nan, five, seven}, {five, seven, nan}, {seven, nan, five}}
	for _, keys := range orders {
		bt := NewBTree("f")
		for i, k := range keys {
			bt.Insert(k, RID{Page: PageID(i)})
		}
		bt.Insert(FloatValue(-math.NaN()), RID{Page: 10})
		bt.Insert(FloatValue(5), RID{Page: 11})
		bt.Insert(StringValue("5"), RID{Page: 12})
		ridOf := map[string][]RID{}
		for i, k := range keys {
			ridOf[k.String()] = append(ridOf[k.String()], RID{Page: PageID(i)})
		}
		want := map[string][]RID{
			"5":   append(ridOf["5"], RID{Page: 11}),
			"7":   ridOf["7"],
			"NaN": append(ridOf["NaN"], RID{Page: 10}),
		}
		for _, k := range []Value{five, seven, nan} {
			if got := bt.Search(k); fmt.Sprint(got) != fmt.Sprint(want[k.String()]) {
				t.Fatalf("order %v: Search(%v) = %v, want %v", keys, k, got, want[k.String()])
			}
		}
		var inRange []RID
		bt.Range(IntValue(6), IntValue(8), func(_ Value, rid RID) bool {
			inRange = append(inRange, rid)
			return true
		})
		if fmt.Sprint(inRange) != fmt.Sprint(want["7"]) {
			t.Fatalf("order %v: Range(6, 8) = %v, want %v", keys, inRange, want["7"])
		}
		if got := fmt.Sprint(bt.Keys()); got != "[5 7 NaN 5]" {
			t.Fatalf("order %v: keys %s, want [5 7 NaN 5]", keys, got)
		}
		if !bt.HasNaN() {
			t.Fatalf("order %v: HasNaN false with two NaN postings", keys)
		}
		for _, rid := range want["NaN"] {
			if !bt.Delete(nan, rid) {
				t.Fatalf("order %v: Delete(NaN, %v) found nothing", keys, rid)
			}
		}
		if bt.HasNaN() || bt.Search(nan) != nil || len(bt.Search(five)) != 2 {
			t.Fatalf("order %v: after deleting the NaNs: HasNaN %v, NaN %v, 5 %v",
				keys, bt.HasNaN(), bt.Search(nan), bt.Search(five))
		}
		if err := bt.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// A split tree with NaN arriving between numbers: every number finds
	// exactly its own posting.
	bt := NewBTree("f")
	for i := 0; i < 1000; i++ {
		bt.Insert(FloatValue(float64(i)), RID{Page: PageID(i)})
		if i%97 == 0 {
			bt.Insert(nan, RID{Page: PageID(5000 + i)})
		}
	}
	for i := 0; i < 1000; i++ {
		if got := bt.Search(IntValue(int64(i))); len(got) != 1 || got[0].Page != PageID(i) {
			t.Fatalf("Search(%d) = %v", i, got)
		}
	}
	if got := len(bt.Search(nan)); got != 11 {
		t.Fatalf("Search(NaN) = %d postings, want 11", got)
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: after any random insert sequence, the tree validates and
// every inserted key is findable with the right posting count.
func TestBTreeInvariantProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		rng := rand.New(rand.NewSource(seed))
		bt := NewBTree("p")
		want := map[int64]int{}
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(200))
			bt.Insert(IntValue(k), RID{Page: PageID(i)})
			want[k]++
		}
		if bt.Validate() != nil || bt.Len() != n {
			return false
		}
		for k, c := range want {
			if len(bt.Search(IntValue(k))) != c {
				return false
			}
		}
		// Range over everything yields exactly n postings in order.
		var prev *Value
		count := 0
		ok := true
		bt.Range(IntValue(-1), IntValue(1000), func(k Value, _ RID) bool {
			count++
			if prev != nil && Compare(*prev, k) > 0 {
				ok = false
				return false
			}
			kk := k
			prev = &kk
			return true
		})
		return ok && count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMemDiskExtendsGeometrically: an append costs its record, not the
// device. 10,000 small appends change capacity O(log n) times and
// allocate O(final size) bytes in all; length, not capacity, is what
// Size and Bytes report; a tail cut off by Truncate reads as zeros when
// a later write or Truncate exposes it again; NewMemDiskFrom copies.
func TestMemDiskExtendsGeometrically(t *testing.T) {
	d := NewMemDisk()
	rec := bytes.Repeat([]byte{0xAB}, 48)
	grows, allocated, lastCap := 0, 0, 0
	for i := 0; i < 10000; i++ {
		if _, err := d.WriteAt(rec, int64(i*len(rec))); err != nil {
			t.Fatal(err)
		}
		if c := cap(d.buf); c != lastCap {
			grows, allocated, lastCap = grows+1, allocated+c, c
		}
	}
	final := 10000 * len(rec)
	if sz, _ := d.Size(); sz != int64(final) || len(d.Bytes()) != final {
		t.Fatalf("Size = %d, len(Bytes) = %d, want %d (length, not capacity %d)", sz, len(d.Bytes()), final, lastCap)
	}
	if grows > 24 || allocated > 4*final {
		t.Fatalf("10000 appends grew the device %d times and allocated %d bytes for a %d-byte device", grows, allocated, final)
	}

	// Shrink, then extend two ways: the old tail must not come back.
	if err := d.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte{1}, 299); err != nil { // leaves a gap at [100,299)
		t.Fatal(err)
	}
	if err := d.Truncate(1000); err != nil {
		t.Fatal(err)
	}
	got := d.Bytes()
	if len(got) != 1000 || got[99] != 0xAB || got[299] != 1 {
		t.Fatalf("after shrink+extend: len %d, [99]=%#x, [299]=%#x", len(got), got[99], got[299])
	}
	for i := 100; i < 1000; i++ {
		if i != 299 && got[i] != 0 {
			t.Fatalf("byte %d = %#x after shrink-then-extend, want 0", i, got[i])
		}
	}
	buf := make([]byte, 8)
	if n, _ := d.ReadAt(buf, 996); n != 4 {
		t.Fatalf("ReadAt at the tail read %d bytes, want 4 (reads stop at the length)", n)
	}

	src := []byte{1, 2, 3}
	c := NewMemDiskFrom(src)
	src[0] = 9
	if b := c.Bytes(); b[0] != 1 {
		t.Fatal("NewMemDiskFrom aliases its argument")
	}
}

// BenchmarkMemDiskAppend appends 64-byte records to one device, as the
// WAL does: bytes/op must stay a small multiple of the record
// (TestAllocBudgets gates it) — a device that re-allocates itself per
// append costs its whole size each time.
func BenchmarkMemDiskAppend(b *testing.B) {
	op := memDiskAppendOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// memDiskAppendOp returns BenchmarkMemDiskAppend's op: one 64-byte
// append at the end of a device of its own.
func memDiskAppendOp(tb testing.TB) func() {
	d := NewMemDisk()
	rec := make([]byte, 64)
	var off int64
	return func() {
		if _, err := d.WriteAt(rec, off); err != nil {
			tb.Fatal(err)
		}
		off += int64(len(rec))
	}
}

// Appending 64-byte records to one MemDisk, as the WAL does (measured
// 209 B/op at 20000 appends; doubling capacity bounds it at 4x the
// record). A device that re-allocates itself per append reads its own
// size here: ~640,000.
const memDiskAppendByteBudget = 512

// TestAllocBudgets holds BenchmarkMemDiskAppend to its byte budget.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Skip(t)
	allocbudget.Measure(t, "MemDiskAppend", 20000, memDiskAppendOp(t)).Bytes(memDiskAppendByteBudget)
}

// FreeSpace returns the bytes available for one more record + slot.
func (p *Page) FreeSpace() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.freeSpaceLocked()
}

// LiveBytes returns the total bytes of live records.
func (p *Page) LiveBytes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for i := 0; i < p.slotCount(); i++ {
		if p.liveLocked(i) {
			_, l := p.slotAt(i)
			n += l
		}
	}
	return n
}
