package storage

import (
	"errors"
	"sync"
	"testing"
)

// TestBufferShardCount pins the capacity->shard sizing: small pools
// stay single-shard (so eviction-order tests and tiny caches keep
// strict global LRU/Clock behaviour), large pools fan out to at most
// bufferShardMax shards of at least bufferShardMinFrames frames.
func TestBufferShardCount(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{1, 1}, {32, 1}, {63, 1}, {64, 2}, {128, 4}, {256, 8}, {512, 16},
		{4096, 16}, {100000, 16},
	}
	for _, c := range cases {
		if got := bufferShardCount(c.capacity); got != c.want {
			t.Errorf("bufferShardCount(%d) = %d, want %d", c.capacity, got, c.want)
		}
		bm := NewBufferManager(NewStore(), c.capacity, NewLRU())
		if got := bm.ShardCount(); got != c.want {
			t.Errorf("ShardCount(cap=%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
}

// TestBufferShardedEvictionCapacity: a sharded pool must never hold
// more resident pages than its total capacity, and page data must
// survive eviction round-trips.
func TestBufferShardedEvictionCapacity(t *testing.T) {
	store := NewStore()
	bm := NewBufferManager(store, 128, NewLRU()) // 4 shards x 32 frames
	var ids []PageID
	for i := 0; i < 400; i++ {
		id := store.Allocate()
		ids = append(ids, id)
		p, err := bm.GetPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pageInsert(p, EncodeRecord(Tuple{IntValue(int64(i))}, Version{Xmin: 1})); err != nil {
			t.Fatal(err)
		}
		bm.Unpin(id)
	}
	if r := bm.Resident(); r > 128 {
		t.Fatalf("resident %d exceeds capacity 128", r)
	}
	for i, id := range ids {
		p, err := bm.GetPage(id)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := p.rowsInto(id, nil, nil, nil)
		if err != nil || len(ts) != 1 || ts[0][0].Int != int64(i) {
			t.Fatalf("page %d round-trip: %v %v", id, ts, err)
		}
		bm.Unpin(id)
	}
	st := bm.Stats()
	if st.Hits+st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

// TestBufferManagerShardedRace hammers the sharded buffer manager from
// many goroutines — GetPage/Unpin across all shards, policy swaps
// mid-flight, and stat reads — to let the race detector check the
// per-shard locking and the lock-free counters. Invariant checked at
// the end: every access was counted exactly once as hit or miss.
func TestBufferManagerShardedRace(t *testing.T) {
	store := NewStore()
	var ids []PageID
	for i := 0; i < 512; i++ {
		ids = append(ids, store.Allocate())
	}
	bm := NewBufferManager(store, 256, NewLRU()) // 8 shards
	const (
		workers = 8
		rounds  = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := ids[(i*13+w*97)%len(ids)]
				p, err := bm.GetPage(id)
				if err != nil {
					// A shard can transiently fill with pinned frames.
					if errors.Is(err, ErrAllPinned) {
						continue
					}
					t.Error(err)
					return
				}
				p.FreeSpace() // touch the page under pin
				bm.Unpin(id)
			}
		}(w)
	}
	wg.Add(2)
	go func() { // policy swapper
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if i%2 == 0 {
				bm.SwapPolicy(NewClock())
			} else {
				bm.SwapPolicy(NewLRU())
			}
		}
	}()
	go func() { // stats reader (the monitor's gauge path)
		defer wg.Done()
		for i := 0; i < 500; i++ {
			st := bm.Stats()
			_ = st.HitRate()
			_ = bm.Resident()
			_ = bm.Policy()
		}
	}()
	wg.Wait()
	st := bm.Stats()
	if st.Hits+st.Misses > uint64(workers*rounds) {
		t.Fatalf("counted %d accesses, only %d issued", st.Hits+st.Misses, workers*rounds)
	}
	if st.Misses == 0 {
		t.Fatal("expected cold misses")
	}
}
