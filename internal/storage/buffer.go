package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageID identifies a page within a DB.
type PageID uint32

// ErrNoPage is returned for an unknown page id.
var ErrNoPage = errors.New("storage: no such page")

// ErrQuarantined is returned for pages pulled from service after a
// checksum failure: the engine reports the corruption instead of
// silently serving bad bytes.
var ErrQuarantined = errors.New("storage: page quarantined (checksum failure)")

// BufferStats reports page-table traffic and integrity counters. Every
// page is resident, so every GetPage is a hit: Misses and Evictions
// read 0.
type BufferStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// ChecksumFailures counts pages that failed their checksum, at
	// recovery or in a checkpoint's scrub.
	ChecksumFailures uint64
	// QuarantinedPages is the number of pages currently quarantined.
	QuarantinedPages uint64
}

// HitRate returns hits/(hits+misses), 0 when idle.
func (s BufferStats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// chunkSlots is the number of page slots in one chunk of the table.
const (
	chunkShift = 8
	chunkSlots = 1 << chunkShift
)

// BufferManager is the DB's page table. Every page lives in memory;
// the page file is only the checkpoint image recovery starts from.
// Page ids are dense (Allocate is a counter), so the table is a
// grow-only directory of fixed-size chunks, and a page's slot holds
// the page, its pin count and its quarantine mark, each an atomic.
// GetPage and Unpin take no lock; only growing the directory does.
// The zero value is an empty table.
type BufferManager struct {
	growMu sync.Mutex
	dir    atomic.Pointer[[]*pageChunk]
	next   atomic.Uint32

	hits        atomic.Uint64
	checksum    atomic.Uint64
	quarantined atomic.Uint64
}

type pageChunk [chunkSlots]pageSlot

// pageSlot is one page id's entry: a nil page is an id with no page
// installed yet, a non-nil mark pulls the page from service.
type pageSlot struct {
	page       atomic.Pointer[Page]
	pins       atomic.Int32
	quarantine atomic.Pointer[quarantineMark]
}

type quarantineMark struct{ cause error }

// slot returns id's slot, or nil when the table has not grown to id.
func (b *BufferManager) slot(id PageID) *pageSlot {
	dir := b.dir.Load()
	if dir == nil || int(id>>chunkShift) >= len(*dir) {
		return nil
	}
	return &(*dir)[id>>chunkShift][id&(chunkSlots-1)]
}

// grow returns id's slot, growing the directory to cover it.
func (b *BufferManager) grow(id PageID) *pageSlot {
	if s := b.slot(id); s != nil {
		return s
	}
	b.growMu.Lock()
	defer b.growMu.Unlock()
	var dir []*pageChunk
	if d := b.dir.Load(); d != nil {
		dir = *d
	}
	if n := int(id>>chunkShift) + 1; n > len(dir) {
		grown := make([]*pageChunk, n)
		copy(grown, dir)
		for i := len(dir); i < n; i++ {
			grown[i] = new(pageChunk)
		}
		b.dir.Store(&grown)
	}
	return b.slot(id)
}

// slots calls fn for the slot of every id below the allocator cursor.
func (b *BufferManager) slots(fn func(PageID, *pageSlot)) {
	n := PageID(b.next.Load())
	for id := PageID(0); id < n; id++ {
		if s := b.slot(id); s != nil {
			fn(id, s)
		}
	}
}

// Allocate creates a fresh page and returns its id.
func (b *BufferManager) Allocate() PageID {
	id := PageID(b.next.Add(1) - 1)
	b.grow(id).page.Store(NewPage())
	return id
}

// install places a recovered page at a specific id, bumping the
// allocator cursor past it — recovery rebuilding the table from a
// checkpoint image and redo log must reproduce the exact pre-crash
// PageIDs or every logged RID would dangle.
func (b *BufferManager) install(id PageID, p *Page) {
	b.grow(id).page.Store(p)
	b.ensureNext(uint32(id) + 1)
}

// ensureNext raises the allocator cursor to at least n (recovery's
// next-page watermark).
func (b *BufferManager) ensureNext(n uint32) {
	for {
		cur := b.next.Load()
		if cur >= n || b.next.CompareAndSwap(cur, n) {
			return
		}
	}
}

// page returns id's page without pinning it or checking its
// quarantine mark (checkpoint's flush and recovery's redo).
func (b *BufferManager) page(id PageID) (*Page, error) {
	if s := b.slot(id); s != nil {
		if p := s.page.Load(); p != nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("%w: %d", ErrNoPage, id)
}

// GetPage pins and returns a page. A quarantined page fails with
// ErrQuarantined, wrapping the cause of its quarantine.
func (b *BufferManager) GetPage(id PageID) (*Page, error) {
	s := b.slot(id)
	if s == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoPage, id)
	}
	if m := s.quarantine.Load(); m != nil {
		// Both sentinels stay matchable: ErrQuarantined for the service
		// state, the cause (typically ErrChecksum) for the diagnosis.
		return nil, fmt.Errorf("%w: page %d: %w", ErrQuarantined, id, m.cause)
	}
	p := s.page.Load()
	if p == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoPage, id)
	}
	s.pins.Add(1)
	b.hits.Add(1)
	return p, nil
}

// Unpin releases a pin taken by GetPage.
func (b *BufferManager) Unpin(id PageID) {
	s := b.slot(id)
	if s == nil {
		return
	}
	for {
		n := s.pins.Load()
		if n <= 0 || s.pins.CompareAndSwap(n, n-1) {
			return
		}
	}
}

// Quarantine pulls a page from service: subsequent GetPage calls fail
// with ErrQuarantined (wrapping cause) instead of serving bytes that
// failed their checksum. A pin already held keeps its page. A page is
// counted once however often it is quarantined. An id with no page
// installed has nothing to pull.
func (b *BufferManager) Quarantine(id PageID, cause error) {
	s := b.slot(id)
	if s == nil || s.page.Load() == nil || !s.quarantine.CompareAndSwap(nil, &quarantineMark{cause}) {
		return
	}
	b.quarantined.Add(1)
}

// Quarantined returns the ids currently quarantined, ascending.
func (b *BufferManager) Quarantined() []PageID {
	var out []PageID
	b.slots(func(id PageID, s *pageSlot) {
		if s.quarantine.Load() != nil {
			out = append(out, id)
		}
	})
	return out
}

// PinnedFrames returns the total outstanding pin count — the
// leak-audit gauge: after a query completes (success or error), this
// must return to its pre-query value.
func (b *BufferManager) PinnedFrames() int {
	n := 0
	b.slots(func(_ PageID, s *pageSlot) { n += int(s.pins.Load()) })
	return n
}

// Stats returns the table's counters. Lock-free: monitor gauges can
// poll it mid-query.
func (b *BufferManager) Stats() BufferStats {
	return BufferStats{
		Hits:             b.hits.Load(),
		ChecksumFailures: b.checksum.Load(),
		QuarantinedPages: b.quarantined.Load(),
	}
}
