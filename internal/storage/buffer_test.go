package storage

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBufferHitCount: every GetPage of a resident page is a hit, and
// the table reports no misses and no evictions.
func TestBufferHitCount(t *testing.T) {
	var bm BufferManager
	a, b := bm.Allocate(), bm.Allocate()
	for _, id := range []PageID{a, b, a} {
		if _, err := bm.GetPage(id); err != nil {
			t.Fatal(err)
		}
		bm.Unpin(id)
	}
	st := bm.Stats()
	if st.Hits != 3 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 1 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
	if n := bm.PinnedFrames(); n != 0 {
		t.Fatalf("pinned = %d after balanced pins", n)
	}
}

func TestBufferUnknownPage(t *testing.T) {
	var bm BufferManager
	bm.Allocate()
	// 1 is in the table's first chunk but past the cursor; 99999 is past
	// the table.
	for _, id := range []PageID{1, 99999} {
		if _, err := bm.GetPage(id); !errors.Is(err, ErrNoPage) {
			t.Fatalf("GetPage(%d) = %v, want ErrNoPage", id, err)
		}
	}
}

// TestPageTableStress runs GetPage/Unpin workers while one goroutine
// allocates across chunk boundaries and another quarantines pages, so
// the race detector checks the lock-free slots against directory
// growth. Afterwards no pin is outstanding, every allocated page
// reads, and every quarantined page fails with ErrQuarantined.
func TestPageTableStress(t *testing.T) {
	const (
		initial = chunkSlots - 8 // the allocator crosses two boundaries
		total   = 3 * chunkSlots
		workers = 4
		rounds  = 3000
	)
	var bm BufferManager
	for i := 0; i < initial; i++ {
		bm.Allocate()
	}
	sick := func(id PageID) bool { return id < initial && id%7 == 0 }
	nSick := uint64(0)
	for id := PageID(0); id < initial; id++ {
		if sick(id) {
			nSick++
		}
	}

	var cursor atomic.Uint32 // every id below it has a page installed
	cursor.Store(initial)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := PageID((i*13 + w*97) % int(cursor.Load()))
				p, err := bm.GetPage(id)
				if errors.Is(err, ErrQuarantined) && sick(id) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				p.FreeSpace() // touch the page under its pin
				bm.Unpin(id)
			}
		}(w)
	}
	wg.Add(3)
	go func() { // allocator
		defer wg.Done()
		for i := initial; i < total; i++ {
			cursor.Store(uint32(bm.Allocate()) + 1)
		}
	}()
	go func() { // quarantiner: each sick page twice, counted once
		defer wg.Done()
		for round := 0; round < 2; round++ {
			for id := PageID(0); id < initial; id++ {
				if sick(id) {
					bm.Quarantine(id, ErrChecksum)
				}
			}
			if n := bm.Stats().QuarantinedPages; n != nSick {
				t.Errorf("after round %d: %d pages counted quarantined, want %d", round, n, nSick)
			}
		}
	}()
	go func() { // the monitor's gauge path
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = bm.Stats().HitRate()
			_ = bm.PinnedFrames()
		}
	}()
	wg.Wait()

	if n := bm.PinnedFrames(); n != 0 {
		t.Fatalf("pinned = %d after every worker unpinned", n)
	}
	var want []PageID
	for id := PageID(0); id < total; id++ {
		_, err := bm.GetPage(id)
		if sick(id) {
			want = append(want, id)
			if !errors.Is(err, ErrQuarantined) || !errors.Is(err, ErrChecksum) {
				t.Fatalf("quarantined page %d: GetPage = %v", id, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		bm.Unpin(id)
	}
	if _, err := bm.GetPage(total); !errors.Is(err, ErrNoPage) {
		t.Fatalf("GetPage past the cursor = %v, want ErrNoPage", err)
	}
	if got := bm.Quarantined(); !slices.Equal(got, want) {
		t.Fatalf("Quarantined() = %v, want %v", got, want)
	}
	if st := bm.Stats(); st.QuarantinedPages != uint64(len(want)) {
		t.Fatalf("quarantined %d pages, stats %+v", len(want), st)
	}
}

// TestBufferPinCount: GetPage pins and Unpin releases, an extra Unpin
// never drives the count below zero, Unpin of an unknown id is a
// no-op, and a pin taken before a quarantine keeps its page.
func TestBufferPinCount(t *testing.T) {
	var bm BufferManager
	a, b := bm.Allocate(), bm.Allocate()
	pa, err := bm.GetPage(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := bm.GetPage(b); err != nil {
			t.Fatal(err)
		}
	}
	if n := bm.PinnedFrames(); n != 3 {
		t.Fatalf("pinned = %d, want 3", n)
	}
	bm.Unpin(b)
	bm.Unpin(b)
	bm.Unpin(b) // one too many: clamps at zero
	bm.Unpin(99999)
	if n := bm.PinnedFrames(); n != 1 {
		t.Fatalf("pinned = %d after releasing b, want 1", n)
	}
	bm.Quarantine(a, ErrChecksum)
	if _, err := bm.GetPage(a); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("GetPage(quarantined) = %v, want ErrQuarantined", err)
	}
	pa.FreeSpace() // the held pin still reads its page
	bm.Unpin(a)
	if n := bm.PinnedFrames(); n != 0 {
		t.Fatalf("pinned = %d after releasing every pin", n)
	}
}

// TestQuarantineOnce: a page is counted quarantined once however often
// it is quarantined, GetPage wraps the first cause, and an id with no
// page installed is not quarantined at all.
func TestQuarantineOnce(t *testing.T) {
	var bm BufferManager
	a, b := bm.Allocate(), bm.Allocate()
	counted := func(step string, want uint64) {
		t.Helper()
		if n := bm.Stats().QuarantinedPages; n != want {
			t.Fatalf("%s: %d pages counted quarantined, want %d", step, n, want)
		}
	}
	first, second := errors.New("first cause"), errors.New("second cause")
	counted("before", 0)
	bm.Quarantine(b, first)
	counted("first quarantine", 1)
	bm.Quarantine(b, second)
	counted("second quarantine of the same page", 1)
	bm.Quarantine(2, first)     // in the first chunk, past the cursor
	bm.Quarantine(99999, first) // past the table
	counted("ids with no page", 1)
	_, err := bm.GetPage(b)
	if !errors.Is(err, ErrQuarantined) || !errors.Is(err, first) || errors.Is(err, second) {
		t.Fatalf("GetPage(quarantined) = %v, want ErrQuarantined wrapping the first cause", err)
	}
	if got := bm.Quarantined(); !slices.Equal(got, []PageID{b}) {
		t.Fatalf("Quarantined() = %v", got)
	}
	if st := bm.Stats(); st.QuarantinedPages != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := bm.GetPage(a); err != nil {
		t.Fatalf("healthy page: %v", err)
	}
	bm.Unpin(a)
}

// TestInstallPastChunks: recovery's install places a page at its exact
// id, beyond the table's chunks, and moves the allocator cursor past
// it but never back; the ids skipped over hold no page.
func TestInstallPastChunks(t *testing.T) {
	var bm BufferManager
	id := PageID(2*chunkSlots + 3)
	want := NewPage()
	bm.install(id, want)
	got, err := bm.GetPage(id)
	if err != nil || got != want {
		t.Fatalf("GetPage(%d) = %p, %v; want the installed page", id, got, err)
	}
	bm.Unpin(id)
	for _, hole := range []PageID{0, chunkSlots, id - 1} {
		if _, err := bm.GetPage(hole); !errors.Is(err, ErrNoPage) {
			t.Fatalf("GetPage(%d) = %v, want ErrNoPage", hole, err)
		}
	}
	bm.install(1, NewPage()) // a lower id leaves the cursor where it is
	if next := bm.Allocate(); next != id+1 {
		t.Fatalf("Allocate after install = %d, want %d", next, id+1)
	}
	if n := bm.PinnedFrames(); n != 0 {
		t.Fatalf("pinned = %d", n)
	}
}
