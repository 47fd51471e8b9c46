package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
// dec caches the page's decode image (decoded): the live tuples, the
// typed column vectors the filter kernels read and the zone summary
// their page veto reads, so scans skip record parsing. It is
// copy-on-write and kept exact under the write latch: an insert and an
// Xmax stamp derive the next image and publish it once their log
// append succeeds; a tombstone, Compact and the redo appliers drop it. Readers publish a fresh decode under the read
// latch, so a cached image is never stale. Cached tuples are shared
// across readers — consumers must treat scanned tuples as immutable
// (the executor always copies values before mutating).
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
// slot order, the slot each one sits in, and each one's version, plus
// the version summary admitsAll judges: allLive (no Xmax) and the
// distinct Xmins, nxmin > len(xmins) marking overflow. Two fit the
// measured pages (EXPERIMENTS.md snapshot-scan): a read-only wire
// workload scans only pages of one or two creators. An image is never
// changed once published: inserted and stamped derive its successor,
// which maintains the summary. vecs holds each column's vector
// (colvec.go): stamped shares them, inserted extends the built ones.
// zones holds the zone summary (zonemap.go) once a veto asked for it:
// stamped shares it, inserted shares or widens it.
type decodedPage struct {
	tuples  []Tuple
	slots   []uint16
	vers    []Version
	allLive bool
	nxmin   uint8
	xmins   [2]uint64
	vecs    *[]atomic.Pointer[colVec]
	zones   atomic.Pointer[[]ColZone]
}

// derive copies d for a mutation to derive its successor from: every
// field but the zone summary, which the mutation decides.
func (d *decodedPage) derive() *decodedPage {
	return &decodedPage{tuples: d.tuples, slots: d.slots, vers: d.vers,
		allLive: d.allLive, nxmin: d.nxmin, xmins: d.xmins, vecs: d.vecs}
}

// admitsAll is the page verdict: with no Xmax, visible(v, s) ==
// committedAt(v.Xmin, s), so s admits the page whole iff every creator
// committed in s.
func (d *decodedPage) admitsAll(tm *TxnManager, s Snapshot) bool {
	if !d.allLive || int(d.nxmin) > len(d.xmins) {
		return false
	}
	for _, x := range d.xmins[:d.nxmin] {
		if !tm.committedAt(x, s) {
			return false
		}
	}
	return true
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

func (p *Page) freeSpaceLocked() int {
	used := pageHeaderSize + p.slotCount()*slotSize
	free := p.freeEnd() - used - slotSize
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
// mutation is rolled back and the page is unchanged; else the decode
// image, if one is cached, gains the record.
func (p *Page) InsertWith(rec []byte, after func(slot int) (uint64, error)) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
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
	p.dec.Store(p.dec.Load().inserted(slot, rec))
	return slot, nil
}

func (p *Page) insertLocked(rec []byte) (int, error) {
	if len(rec) > p.freeSpaceLocked() {
		return 0, fmt.Errorf("%w: need %d, have %d", ErrPageFull, len(rec), p.freeSpaceLocked())
	}
	n := p.slotCount()
	newEnd := p.freeEnd() - len(rec)
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

// getVisible decodes the record in slot if txn's snapshot (nil txn:
// every version) admits its version, and returns errNotVisible without
// decoding it otherwise. Header, verdict and decode all read the page
// buffer under one read-latch hold, so the record is never copied out
// first: decoding copies what it keeps (string payloads).
func (p *Page) getVisible(slot int, txn *Txn) (Tuple, error) {
	var s Snapshot
	if txn != nil {
		s = txn.Snapshot()
	}
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
	if txn != nil && !txn.tm.visible(ver, s) {
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

// SetXmaxWith stamps xmax as the deleting transaction of the record
// in slot under a single write-latch hold: `decide` (nil: stamp
// unconditionally) inspects the current version and may refuse, so a
// read-decide-write sequence (the MVCC claim) is atomic with respect to
// every other writer of the page. The stamp rewrites the header only,
// so a record never moves. `after` is the latch-scoped logging hook
// (see InsertWith) and receives the stamped record; it runs before the
// stamp lands, so a failed append leaves the page unchanged.
func (p *Page) SetXmaxWith(slot int, xmax uint64, decide func(Version) error,
	after func(rec []byte) (uint64, error)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	off, length, err := p.liveSlot(slot)
	if err != nil {
		return err
	}
	v, err := RecordVersion(p.buf[off : off+length])
	if err == nil && decide != nil {
		//admvet:allow latchorder the claim decision must be atomic with the rewrite, so the decide callback runs under the page latch by design
		err = decide(v)
	}
	if err != nil {
		return err
	}
	rec := stampXmax(p.buf[off:off+length], xmax)
	//admvet:allow latchorder per-page WAL order must equal apply order, so the log callback runs under the page latch by design
	lsn, err := after(rec)
	if err != nil {
		return err
	}
	copy(p.buf[off:], rec)
	p.lsn = lsn
	p.dec.Store(p.dec.Load().stamped(slot, xmax))
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

// rowsInto is the one page read: it appends the page's live tuples
// whose version txn's snapshot admits (nil txn: every version) and
// that f keeps (nil f: every one) to dst, with each one's RID when rids
// is non-nil, all read from one decode image. The snapshot, read once,
// judges the page once (admitsAll): a page it admits is taken whole, as
// a blind read is; else each version is judged, remembering the last
// creator's verdict (fixed per (id, snapshot), see TxnManager.dir). No
// latch is taken after the decode. Appended tuples own their memory
// (the image's arena), so retaining consumers alias them without
// copying. A filter first gets a veto over the whole page from the
// image's zone summary (a vetoed page costs no visibility pass and no
// copy), then runs between the visibility selection and the copy, so
// only survivors are copied. Without one the loops stay apart: sharing
// one cost the tuples-only scan of judged pages 15-40%.
func (p *Page) rowsInto(id PageID, dst []Tuple, rids *[]RID, txn *Txn, f RowFilter) ([]Tuple, error) {
	d, err := p.decoded()
	if err != nil {
		return dst, err
	}
	if f != nil && !f.MayMatch(PageImage{d}) {
		return dst, nil
	}
	var tm *TxnManager
	var s Snapshot
	all := txn == nil
	if !all {
		tm, s = txn.tm, txn.Snapshot()
		all = d.admitsAll(tm, s)
	}
	x, xok := s.Self, true // the last creator judged: committedAt(s.Self, s) holds
	if f != nil {
		sel := f.Sel()
		for i := range d.vers {
			if v := &d.vers[i]; !all {
				if v.Xmin != x {
					x, xok = v.Xmin, tm.committedAt(v.Xmin, s)
				}
				if !tm.visibleFrom(xok, *v, s) {
					continue
				}
			}
			sel = append(sel, int32(i))
		}
		if len(sel) > 0 {
			sel = f.Filter(PageImage{d}, sel)
		}
		for _, i := range sel {
			dst = append(dst, d.tuples[i])
			if rids != nil {
				*rids = append(*rids, RID{Page: id, Slot: int(d.slots[i])})
			}
		}
		return dst, nil
	}
	if rids == nil {
		if all {
			return append(dst, d.tuples...), nil
		}
		for i, t := range d.tuples {
			v := d.vers[i]
			if v.Xmin != x {
				x, xok = v.Xmin, tm.committedAt(v.Xmin, s)
			}
			if tm.visibleFrom(xok, v, s) {
				dst = append(dst, t)
			}
		}
		return dst, nil
	}
	for i, t := range d.tuples {
		if all || tm.visible(d.vers[i], s) {
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
	total, live, width := 0, 0, 0
	for s := 0; s < p.slotCount(); s++ {
		off, length := p.slotAt(s)
		if length == 0 {
			continue
		}
		body, _, err := recordParts(p.buf[off : off+length])
		if err != nil {
			return nil, err
		}
		fields := int(binary.BigEndian.Uint16(body))
		total += fields
		width = max(width, fields)
		live++
	}
	// The arena never reallocates (capacity is exact), so the tuple
	// slices carved below remain valid.
	arena := make(Tuple, 0, total)
	d := &decodedPage{
		tuples:  make([]Tuple, 0, live),
		slots:   make([]uint16, 0, live),
		vers:    make([]Version, 0, live),
		allLive: true,
		vecs:    newColSlots(width),
	}
	for s := 0; s < p.slotCount(); s++ {
		off, length := p.slotAt(s)
		if length == 0 {
			continue
		}
		var err error
		if arena, err = d.add(arena, s, p.buf[off:off+length]); err != nil {
			return nil, err
		}
	}
	// Publish under the read latch: every mutator either already ran
	// (we decoded its write) or runs after our unlock and derives from
	// or drops this image.
	p.dec.Store(d)
	return d, nil
}

// add appends the record in slot to d, its fields carved from arena,
// and folds its version into the summary: the one step of a fresh
// decode and of an insert's derived image.
func (d *decodedPage) add(arena Tuple, slot int, rec []byte) (Tuple, error) {
	body, v, err := recordParts(rec)
	if err != nil {
		return arena, err
	}
	fields := int(binary.BigEndian.Uint16(body))
	start := len(arena)
	if arena, err = decodeFields(slices.Grow(arena, fields), body[2:], fields); err != nil {
		return arena, err
	}
	d.tuples = append(d.tuples, arena[start:len(arena):len(arena)])
	d.slots = append(d.slots, uint16(slot))
	d.vers = append(d.vers, v)
	d.allLive = d.allLive && v.Xmax == 0
	if n := int(d.nxmin); n <= len(d.xmins) && !slices.Contains(d.xmins[:n], v.Xmin) {
		if n < len(d.xmins) {
			d.xmins[n] = v.Xmin
		}
		d.nxmin++ // past len(xmins): overflow
	}
	return arena, nil
}

// inserted derives the image after rec landed in slot, the page's new
// last slot, decoding only rec into the spare capacity of d's slices
// and of its built column vectors: only the current image is ever
// extended, and every reader of d reads only its first len entries.
// With no image cached the page stays undecoded; a record that does
// not decode drops the image. A zone summary is carried only where d
// has one (widened): an insert builds none that no reader asked for.
func (d *decodedPage) inserted(slot int, rec []byte) *decodedPage {
	if d == nil {
		return nil
	}
	next := d.derive()
	if _, err := next.add(nil, slot, rec); err != nil {
		return nil
	}
	t := next.tuples[len(d.tuples)]
	next.extend(len(d.tuples), t)
	next.zones.Store(widened(d.zones.Load(), t))
	return next
}

// stamped derives the image after slot's Xmax became xmax: tuples,
// slots, column vectors and zone summary shared, vers copied with the
// one version patched and room for the insert an UPDATE makes next,
// allLive recomputed.
func (d *decodedPage) stamped(slot int, xmax uint64) *decodedPage {
	if d == nil {
		return nil
	}
	i, ok := slices.BinarySearch(d.slots, uint16(slot))
	if !ok {
		return nil
	}
	next := d.derive()
	next.zones.Store(d.zones.Load())
	next.vers = append(make([]Version, 0, len(d.vers)+1), d.vers...)
	next.vers[i].Xmax = xmax
	next.allLive = xmax == 0 && !slices.ContainsFunc(next.vers, func(v Version) bool { return v.Xmax != 0 })
	return next
}
