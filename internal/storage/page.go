package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageSize is the fixed page size (IA32 page granule; also what the
// §5.1 memory comparison uses as the page-protection unit).
const PageSize = 4096

// pageHeaderSize: u16 slot count + u16 free-space offset.
const pageHeaderSize = 4

// slotSize: u16 offset + u16 length per slot.
const slotSize = 4

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("storage: page full")
	ErrBadSlot     = errors.New("storage: bad slot")
	ErrSlotDeleted = errors.New("storage: slot deleted")
)

// Page is a slotted data page: records grow down from the end, the
// slot directory grows up after the header. Deleted slots keep their
// directory entry (length 0) so RIDs stay stable.
//
// Pages are latch-protected: mutators take the write latch, readers
// the read latch, so heap scans can run concurrently with inserts —
// the shared-scan requirement of the parallel executor.
//
// dec caches the page's decoded live tuples (the arena produced by
// decoded): scans of a page that hasn't changed since its last
// decode skip record parsing entirely. Mutators clear it under the
// write latch; readers publish it under the read latch, so a cached
// image can never be stale. Cached tuples are shared across readers —
// consumers must treat scanned tuples as immutable (the executor
// always copies values before mutating).
type Page struct {
	mu  sync.RWMutex
	buf [PageSize]byte
	dec atomic.Pointer[decodedPage]
	// lsn is the LSN of the last logged mutation applied to this page
	// (0 for unlogged pages). Guarded by mu; recovery's redo pass
	// applies a record only when lsn < record LSN, which is what makes
	// replaying over a fuzzy-checkpoint image idempotent.
	lsn uint64
}

// decodedPage is the page's cached decode image: the live tuples in
// slot order, the slot each one sits in, and each one's version.
type decodedPage struct {
	tuples []Tuple
	slots  []uint16
	vers   []Version
}

// NewPage returns an initialised empty page.
func NewPage() *Page {
	p := &Page{}
	p.setSlotCount(0)
	p.setFreeEnd(PageSize)
	return p
}

// pageFromImage rebuilds a page from a checkpointed frame image and
// its flushed LSN (recovery only).
func pageFromImage(img []byte, lsn uint64) *Page {
	p := &Page{lsn: lsn}
	copy(p.buf[:], img)
	return p
}

func (p *Page) slotCount() int     { return int(binary.BigEndian.Uint16(p.buf[0:2])) }
func (p *Page) setSlotCount(n int) { binary.BigEndian.PutUint16(p.buf[0:2], uint16(n)) }
func (p *Page) freeEnd() int       { return int(binary.BigEndian.Uint16(p.buf[2:4])) }
func (p *Page) setFreeEnd(off int) { binary.BigEndian.PutUint16(p.buf[2:4], uint16(off)) }

func (p *Page) slotAt(i int) (off, length int) {
	base := pageHeaderSize + i*slotSize
	return int(binary.BigEndian.Uint16(p.buf[base : base+2])),
		int(binary.BigEndian.Uint16(p.buf[base+2 : base+4]))
}

func (p *Page) setSlot(i, off, length int) {
	base := pageHeaderSize + i*slotSize
	binary.BigEndian.PutUint16(p.buf[base:base+2], uint16(off))
	binary.BigEndian.PutUint16(p.buf[base+2:base+4], uint16(length))
}

func (p *Page) freeEndActual() int { return p.freeEnd() }

// FreeSpace returns the bytes available for one more record + slot.
func (p *Page) FreeSpace() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.freeSpaceLocked()
}

func (p *Page) freeSpaceLocked() int {
	used := pageHeaderSize + p.slotCount()*slotSize
	free := p.freeEndActual() - used - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Slots returns the number of directory entries (live + deleted).
func (p *Page) Slots() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.slotCount()
}

// LSN returns the page's last-mutation LSN (0 if never logged).
func (p *Page) LSN() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.lsn
}

// CopyBytes snapshots the raw page image and its LSN under the read
// latch — the stable copy a checkpoint flush persists.
func (p *Page) CopyBytes() ([]byte, uint64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	img := make([]byte, PageSize)
	copy(img, p.buf[:])
	return img, p.lsn
}

// InsertWith stores a record and returns its slot number. The logging
// hook runs inside the latch critical section: after the record is
// applied, `after` appends the WAL record for the chosen slot and
// returns the LSN to stamp. Running the append under the latch is what
// guarantees per-page WAL order matches apply order — two writers
// racing on one page cannot log in the reverse of the order they
// applied. If `after` fails the
// mutation is rolled back and the page is unchanged.
func (p *Page) InsertWith(rec []byte, after func(slot int) (uint64, error)) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dec.Store(nil)
	slot, err := p.insertLocked(rec)
	if err != nil {
		return 0, err
	}
	//admvet:allow latchorder per-page WAL order must equal apply order, so the log callback runs under the page latch by design
	lsn, err := after(slot)
	if err != nil {
		// Roll back: the insert always lands in a fresh last slot.
		off, length := p.slotAt(slot)
		p.setSlotCount(slot)
		p.setFreeEnd(off + length)
		return 0, err
	}
	p.lsn = lsn
	return slot, nil
}

func (p *Page) insertLocked(rec []byte) (int, error) {
	if len(rec) > p.freeSpaceLocked() {
		return 0, fmt.Errorf("%w: need %d, have %d", ErrPageFull, len(rec), p.freeSpaceLocked())
	}
	n := p.slotCount()
	newEnd := p.freeEndActual() - len(rec)
	copy(p.buf[newEnd:], rec)
	p.setSlot(n, newEnd, len(rec))
	p.setSlotCount(n + 1)
	p.setFreeEnd(newEnd)
	return n, nil
}

// liveSlot locates a live slot's record; the caller holds the latch.
func (p *Page) liveSlot(slot int) (off, length int, err error) {
	if slot < 0 || slot >= p.slotCount() {
		return 0, 0, fmt.Errorf("%w: %d of %d", ErrBadSlot, slot, p.slotCount())
	}
	off, length = p.slotAt(slot)
	if length == 0 {
		return 0, 0, fmt.Errorf("%w: %d", ErrSlotDeleted, slot)
	}
	return off, length, nil
}

// Get returns a copy of the record in a slot. (A copy, not an alias:
// the caller decodes outside the page latch, so an alias would race
// with concurrent writers.)
func (p *Page) Get(slot int) ([]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	off, length, err := p.liveSlot(slot)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), p.buf[off:off+length]...), nil
}

// getVisible decodes the record in slot if vis (nil: every version)
// admits its version, and returns errNotVisible without decoding it
// otherwise. Header, verdict and decode all read the page buffer under
// one read-latch hold, so the record is never copied out first: decoding
// copies what it keeps (string payloads).
func (p *Page) getVisible(slot int, vis Visibility) (Tuple, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	off, length, err := p.liveSlot(slot)
	if err != nil {
		return nil, err
	}
	body, ver, err := recordParts(p.buf[off : off+length])
	if err != nil {
		return nil, err
	}
	//admvet:allow latchorder a visibility verdict is latch-free loads of the commit table (txn.go), which takes nothing
	if vis != nil && !vis(ver) {
		return nil, errNotVisible
	}
	n := int(binary.BigEndian.Uint16(body))
	return decodeFields(make(Tuple, 0, n), body[2:], n)
}

// DeleteWith tombstones a slot (directory entry kept, space
// reclaimable by Compact) with a latch-scoped logging hook (see
// InsertWith). Tombstoning is reversible, so a failed append restores
// the slot.
func (p *Page) DeleteWith(slot int, after func() (uint64, error)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	off, length, err := p.liveSlot(slot)
	if err != nil {
		return err
	}
	p.dec.Store(nil)
	p.setSlot(slot, off, 0)
	//admvet:allow latchorder per-page WAL order must equal apply order, so the log callback runs under the page latch by design
	lsn, err := after()
	if err != nil {
		p.setSlot(slot, off, length)
		return err
	}
	p.lsn = lsn
	return nil
}

// MutateWith rewrites one record in place through `mutate` under a
// single write-latch hold: the callback receives the current image
// (read-only, valid only during the call) and returns the replacement,
// so a read-decide-write sequence (the MVCC claim: inspect the
// version, then stamp Xmax) is atomic with respect to every other
// writer of the page. The replacement must keep the record's length —
// a claim rewrites the header only — so a record never moves. `after`
// is the latch-scoped logging hook (see InsertWith); it runs before
// the rewrite lands, so a failed append leaves the page unchanged.
func (p *Page) MutateWith(slot int, mutate func(old []byte) ([]byte, error),
	after func(rec []byte) (uint64, error)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	off, length, err := p.liveSlot(slot)
	if err != nil {
		return err
	}
	//admvet:allow latchorder the claim decision must be atomic with the rewrite, so the mutate callback runs under the page latch by design
	rec, err := mutate(p.buf[off : off+length])
	if err != nil {
		return err
	}
	if len(rec) != length {
		return fmt.Errorf("storage: rewrite of slot %d changes its length %d to %d", slot, length, len(rec))
	}
	//admvet:allow latchorder per-page WAL order must equal apply order, so the log callback runs under the page latch by design
	lsn, err := after(rec)
	if err != nil {
		return err
	}
	p.dec.Store(nil)
	copy(p.buf[off:], rec)
	p.lsn = lsn
	return nil
}

// Live reports whether the slot holds a record.
func (p *Page) Live(slot int) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.liveLocked(slot)
}

func (p *Page) liveLocked(slot int) bool {
	if slot < 0 || slot >= p.slotCount() {
		return false
	}
	_, length := p.slotAt(slot)
	return length > 0
}

// Compact rewrites the page dropping tombstoned space; slot numbers
// of live records are preserved (tombstones stay as zero-length
// entries so RIDs never dangle).
func (p *Page) Compact() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dec.Store(nil)
	type rec struct {
		slot int
		data []byte
	}
	var live []rec
	for i := 0; i < p.slotCount(); i++ {
		if p.liveLocked(i) {
			off, length := p.slotAt(i)
			live = append(live, rec{i, append([]byte(nil), p.buf[off:off+length]...)})
		}
	}
	n := p.slotCount()
	end := PageSize
	for i := 0; i < n; i++ {
		off, _ := p.slotAt(i)
		p.setSlot(i, off, 0)
	}
	for _, r := range live {
		end -= len(r.data)
		copy(p.buf[end:], r.data)
		p.setSlot(r.slot, end, len(r.data))
	}
	p.setFreeEnd(end)
	p.setSlotCount(n)
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

// ---------------------------------------------------------------------------
// Redo appliers. Each is LSN-guarded (a page whose LSN is already at
// or past the record's was flushed after the mutation — reapplying
// would corrupt it) and slot-asserting: physiological redo on an
// LSN-consistent page must land in exactly the slot the original
// mutation produced, so a mismatch means the log and page diverged.

func (p *Page) redoInsert(slot int, rec []byte, lsn uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lsn >= lsn {
		return nil // flush already carried this mutation
	}
	p.dec.Store(nil)
	got, err := p.insertLocked(rec)
	if err != nil {
		return fmt.Errorf("storage: redo insert lsn %d: %w", lsn, err)
	}
	if got != slot {
		return fmt.Errorf("storage: redo insert lsn %d landed in slot %d, logged %d", lsn, got, slot)
	}
	p.lsn = lsn
	return nil
}

func (p *Page) redoDelete(slot int, lsn uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lsn >= lsn {
		return nil
	}
	off, _, err := p.liveSlot(slot)
	if err != nil {
		return fmt.Errorf("storage: redo delete lsn %d: %w", lsn, err)
	}
	p.dec.Store(nil)
	p.setSlot(slot, off, 0)
	p.lsn = lsn
	return nil
}

func (p *Page) redoUpdate(slot int, rec []byte, lsn uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lsn >= lsn {
		return nil
	}
	off, length, err := p.liveSlot(slot)
	if err == nil && length != len(rec) {
		err = fmt.Errorf("record of %d bytes, logged %d", length, len(rec))
	}
	if err != nil {
		return fmt.Errorf("storage: redo update lsn %d: %w", lsn, err)
	}
	p.dec.Store(nil)
	copy(p.buf[off:], rec)
	p.lsn = lsn
	return nil
}

// setLSN installs a recovered page's flushed LSN (recovery only).
func (p *Page) setLSN(lsn uint64) {
	p.mu.Lock()
	p.lsn = lsn
	p.mu.Unlock()
}

// rowsInto appends the page's live tuples whose version vis admits
// (nil: every version) to dst, read from the page's decode image. Each
// verdict is a few atomic loads from the commit table
// (TxnManager.commitLSN), so a snapshot scan takes no latch after the
// decode. With rids non-nil it also appends each admitted tuple's RID
// there (id is the page's own id): tuples and slots come from one
// image. The appended tuples own their memory (the image's arena): they
// stay valid after dst is reused, so retaining consumers (hash-join
// builds, drains) alias them without copying. The tuples-only loop is
// every snapshot scan's inner loop and stays free of the RID branches:
// sharing one loop cost BenchmarkSnapshotHeapScan 15%.
func (p *Page) rowsInto(id PageID, dst []Tuple, rids *[]RID, vis Visibility) ([]Tuple, error) {
	d, err := p.decoded()
	if err != nil {
		return dst, err
	}
	if rids == nil {
		if vis == nil {
			return append(dst, d.tuples...), nil
		}
		for i, t := range d.tuples {
			if vis(d.vers[i]) {
				dst = append(dst, t)
			}
		}
		return dst, nil
	}
	for i, t := range d.tuples {
		if vis == nil || vis(d.vers[i]) {
			dst = append(dst, t)
			*rids = append(*rids, RID{Page: id, Slot: int(d.slots[i])})
		}
	}
	return dst, nil
}

// decoded returns the page's decode image, producing and publishing
// it under the read latch on a cache miss. The whole page is decoded
// under one read-latch acquisition, and all values are carved from a
// single arena sized by a header-only pre-pass, so there is no
// per-tuple allocation.
func (p *Page) decoded() (*decodedPage, error) {
	if c := p.dec.Load(); c != nil {
		return c, nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	// Pre-pass: validate every record header, size the value arena and
	// count live slots for the cache image.
	total, live := 0, 0
	for s := 0; s < p.slotCount(); s++ {
		off, length := p.slotAt(s)
		if length == 0 {
			continue
		}
		body, _, err := recordParts(p.buf[off : off+length])
		if err != nil {
			return nil, err
		}
		total += int(binary.BigEndian.Uint16(body))
		live++
	}
	// The arena never reallocates (capacity is exact), so the tuple
	// slices carved below remain valid.
	arena := make(Tuple, 0, total)
	d := &decodedPage{
		tuples: make([]Tuple, 0, live),
		slots:  make([]uint16, 0, live),
		vers:   make([]Version, 0, live),
	}
	for s := 0; s < p.slotCount(); s++ {
		off, length := p.slotAt(s)
		if length == 0 {
			continue
		}
		body, v, _ := recordParts(p.buf[off : off+length]) // validated above
		start := len(arena)
		var err error
		arena, err = decodeFields(arena, body[2:], int(binary.BigEndian.Uint16(body)))
		if err != nil {
			return nil, err
		}
		d.tuples = append(d.tuples, arena[start:len(arena):len(arena)])
		d.slots = append(d.slots, uint16(s))
		d.vers = append(d.vers, v)
	}
	// Publish under the read latch: any mutator's invalidation is
	// either already visible (we decoded its write) or will run after
	// our unlock and clear this image.
	p.dec.Store(d)
	return d, nil
}
