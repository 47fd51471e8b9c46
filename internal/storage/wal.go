// Write-ahead log with redo recovery. Records are CRC32-C framed and
// LSN-stamped; Append writes straight through to the DiskFile and the
// Sync policy decides where the fsync barriers land (every record by
// default — a record is acknowledged only once durable). Recovery is
// redo-only physiological replay: each heap mutation logs its page,
// slot and record image, pages carry the LSN of their last logged
// mutation, and replay applies exactly the records a page's LSN says
// it has not seen. Checkpoints are fuzzy: the checkpoint record
// stores the redo position captured *before* the dirty-page flush, so
// mutations racing the flush are replayed (and LSN-skipped where the
// flush already caught them).
//
// Torn tails are the normal crash case: replay stops at the first
// record whose frame is short or fails its CRC and treats everything
// before it as the durable prefix — exactly the contract the
// crash-at-every-boundary tests assert.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// walMagic heads the log; version bumps invalidate old logs.
var walMagic = []byte("ADMWAL01")

const (
	walHeader       = 8  // magic
	recHeaderSize   = 17 // u32 crc | u32 payload len | u64 lsn | u8 type
	maxRecordLen    = 1 << 20
	checkpointExtra = 8 // u64 redo position inside a checkpoint payload
)

// RecordType tags WAL records.
type RecordType uint8

// WAL record types.
const (
	RecInvalid RecordType = iota
	// RecCreateFile registers a heap file: payload = name.
	RecCreateFile
	// RecAllocPage appends a page to a file: payload = name, pageID.
	RecAllocPage
	// RecInsert logs a heap insert: payload = pageID, slot, record image.
	RecInsert
	// RecDelete logs a tombstone: payload = pageID, slot.
	RecDelete
	// RecUpdate logs an in-place rewrite of a record (a claim's version
	// header): payload as RecInsert's.
	RecUpdate
	// RecCreateIndex registers a B-tree: payload = index name, file
	// name, column.
	RecCreateIndex
	// RecMeta stores an opaque key/value (catalog schemas): payload =
	// key, value.
	RecMeta
	// RecCheckpoint carries the durable metadata snapshot plus the redo
	// position replay resumes from.
	RecCheckpoint
	// RecTxnCommit marks a transaction durable: payload = txn id. Its
	// own LSN is the commit timestamp snapshots order against. The
	// commit table is rebuilt from the full log scan at recovery, so
	// versions whose Xmin has no durable commit record are invisible
	// forever — crash atomicity without undo.
	RecTxnCommit
	// RecTxnAbort records a rolled-back transaction: payload = txn id.
	// Purely informational (rollback undoes physically, and recovery
	// treats any uncommitted id as aborted), but it lets the log tell
	// in-flight from deliberately aborted work.
	RecTxnAbort
)

func (t RecordType) String() string {
	switch t {
	case RecCreateFile:
		return "create-file"
	case RecAllocPage:
		return "alloc-page"
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	case RecUpdate:
		return "update"
	case RecCreateIndex:
		return "create-index"
	case RecMeta:
		return "meta"
	case RecCheckpoint:
		return "checkpoint"
	case RecTxnCommit:
		return "txn-commit"
	case RecTxnAbort:
		return "txn-abort"
	}
	return fmt.Sprintf("record(%d)", uint8(t))
}

// Record is one decoded WAL entry.
type Record struct {
	LSN     uint64
	Type    RecordType
	Payload []byte
	// Off and End are the record's byte extent in the log (End is the
	// offset of the next record) — the boundary coordinates the
	// crash-at-every-point tests truncate at.
	Off, End int64
}

// SyncPolicy controls where Append places fsync barriers.
type SyncPolicy int

// Sync policies.
const (
	// SyncEveryRecord makes every Append a barrier: a returned LSN is
	// durable. The default.
	SyncEveryRecord SyncPolicy = iota
	// SyncManual leaves barriers to explicit Sync calls (group commit;
	// the recovery bench uses it to price the barrier separately).
	SyncManual
)

// ErrWALCorrupt reports a mid-log record that failed validation (torn
// tails are not errors — they end replay).
var ErrWALCorrupt = errors.New("storage: corrupt WAL record")

// WAL is the append-only redo log.
type WAL struct {
	mu      sync.Mutex
	disk    DiskFile
	tail    int64
	nextLSN uint64
	policy  SyncPolicy
	appends uint64
	syncs   uint64
}

// OpenWAL opens (or initialises) a log on disk. For a non-empty log
// the tail and next LSN are discovered by scanning; the scan result is
// also what recovery replays, so Open returns the records.
func OpenWAL(disk DiskFile, policy SyncPolicy) (*WAL, []Record, error) {
	w := &WAL{disk: disk, policy: policy, nextLSN: 1}
	size, err := disk.Size()
	if err != nil {
		return nil, nil, err
	}
	// size < header covers both a fresh file and a crash that tore the
	// magic write itself: either way no record was ever durable, so the
	// log (re)initialises empty.
	if size < walHeader {
		if _, err := disk.WriteAt(walMagic, 0); err != nil {
			return nil, nil, err
		}
		w.tail = walHeader
		return w, nil, nil
	}
	head := make([]byte, walHeader)
	if n, err := disk.ReadAt(head, 0); err != nil || n < walHeader {
		return nil, nil, fmt.Errorf("storage: WAL header unreadable (n=%d): %w", n, err)
	}
	if string(head) != string(walMagic) {
		return nil, nil, fmt.Errorf("storage: bad WAL magic %q", head)
	}
	recs, tail, err := scanRecords(disk, walHeader, size)
	if err != nil {
		return nil, nil, err
	}
	w.tail = tail
	for _, r := range recs {
		if r.LSN >= w.nextLSN {
			w.nextLSN = r.LSN + 1
		}
	}
	return w, recs, nil
}

// scanRecords reads records from off until the first torn/corrupt
// frame or end of file, returning them and the valid tail offset.
func scanRecords(disk DiskFile, off, size int64) ([]Record, int64, error) {
	var out []Record
	hdr := make([]byte, recHeaderSize)
	for off+recHeaderSize <= size {
		if n, err := disk.ReadAt(hdr, off); err != nil {
			return nil, 0, err
		} else if n < recHeaderSize {
			break // torn header: end of durable prefix
		}
		wantCRC := binary.BigEndian.Uint32(hdr[0:4])
		plen := int64(binary.BigEndian.Uint32(hdr[4:8]))
		lsn := binary.BigEndian.Uint64(hdr[8:16])
		typ := RecordType(hdr[16])
		if plen > maxRecordLen || typ == RecInvalid || off+recHeaderSize+plen > size {
			break // implausible frame or payload past EOF: torn tail
		}
		payload := make([]byte, plen)
		if plen > 0 {
			if n, err := disk.ReadAt(payload, off+recHeaderSize); err != nil {
				return nil, 0, err
			} else if int64(n) < plen {
				break
			}
		}
		crc := crc32.Checksum(hdr[4:], castagnoli)
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != wantCRC {
			break // torn or flipped record: durable prefix ends here
		}
		out = append(out, Record{
			LSN: lsn, Type: typ, Payload: payload,
			Off: off, End: off + recHeaderSize + plen,
		})
		off += recHeaderSize + plen
	}
	return out, off, nil
}

// Append frames, writes and (policy permitting) syncs one record,
// returning its LSN. The returned LSN is durable iff the policy is
// SyncEveryRecord or a later Sync succeeds.
func (w *WAL) Append(typ RecordType, payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn := w.nextLSN
	frame := make([]byte, recHeaderSize+len(payload))
	binary.BigEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint64(frame[8:16], lsn)
	frame[16] = byte(typ)
	copy(frame[recHeaderSize:], payload)
	crc := crc32.Checksum(frame[4:], castagnoli)
	binary.BigEndian.PutUint32(frame[0:4], crc)
	n, err := w.disk.WriteAt(frame, w.tail)
	if err != nil {
		return 0, err
	}
	if n != len(frame) {
		return 0, fmt.Errorf("%w: WAL record at %d: %d of %d bytes", ErrShortWrite, w.tail, n, len(frame))
	}
	if w.policy == SyncEveryRecord {
		//admvet:allow latchorder the serialised append+fsync under w.mu is the SyncEveryRecord durability contract
		if err := w.disk.Sync(); err != nil {
			return 0, err
		}
		w.syncs++
	}
	w.nextLSN++
	w.tail += int64(len(frame))
	w.appends++
	return lsn, nil
}

// Sync places an explicit barrier (SyncManual group commit).
func (w *WAL) Sync() error {
	// The fsync runs OUTSIDE w.mu: group commit depends on appends
	// (other sessions' in-flight transactions) proceeding while the
	// leader's barrier is on the disk, or every commit degenerates to
	// a private fsync. A write that lands after the fsync started is
	// simply not covered — it belongs to a later batch, and that
	// batch's own barrier follows its commit records.
	if err := w.disk.Sync(); err != nil {
		return err
	}
	w.mu.Lock()
	w.syncs++
	w.mu.Unlock()
	return nil
}

// Tail returns the offset one past the last durable record — the redo
// position a fuzzy checkpoint captures before flushing.
func (w *WAL) Tail() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tail
}

// Stats returns cumulative (records appended, sync barriers, tail
// bytes).
func (w *WAL) Stats() (appends, syncs uint64, tailBytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.syncs, w.tail
}

// ---------------------------------------------------------------------------
// Payload codecs. All integers big-endian; strings u16-prefixed.

func putString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func getString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("%w: short string header", ErrWALCorrupt)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("%w: short string", ErrWALCorrupt)
	}
	return string(b[:n]), b[n:], nil
}

func putBytes(b, p []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func getBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: short bytes header", ErrWALCorrupt)
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if len(b) < n {
		return nil, nil, fmt.Errorf("%w: short bytes", ErrWALCorrupt)
	}
	return b[:n], b[n:], nil
}

func encodeCreateFile(name string) []byte { return putString(nil, name) }

func decodeCreateFile(p []byte) (string, error) {
	name, rest, err := getString(p)
	if err != nil || len(rest) != 0 {
		return "", fmt.Errorf("%w: create-file payload", ErrWALCorrupt)
	}
	return name, nil
}

func encodeAllocPage(name string, id PageID) []byte {
	b := putString(nil, name)
	return binary.BigEndian.AppendUint32(b, uint32(id))
}

func decodeAllocPage(p []byte) (string, PageID, error) {
	name, rest, err := getString(p)
	if err != nil || len(rest) != 4 {
		return "", 0, fmt.Errorf("%w: alloc-page payload", ErrWALCorrupt)
	}
	return name, PageID(binary.BigEndian.Uint32(rest)), nil
}

// encodeSlotRecord is the payload of RecInsert and RecUpdate: the page,
// the slot and the record image that lands there.
func encodeSlotRecord(id PageID, slot int, rec []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(id))
	b = binary.BigEndian.AppendUint16(b, uint16(slot))
	return putBytes(b, rec)
}

func decodeSlotRecord(p []byte) (PageID, int, []byte, error) {
	if len(p) < 6 {
		return 0, 0, nil, fmt.Errorf("%w: record payload", ErrWALCorrupt)
	}
	id := PageID(binary.BigEndian.Uint32(p))
	slot := int(binary.BigEndian.Uint16(p[4:]))
	rec, rest, err := getBytes(p[6:])
	if err != nil || len(rest) != 0 {
		return 0, 0, nil, fmt.Errorf("%w: record payload", ErrWALCorrupt)
	}
	return id, slot, rec, nil
}

func encodeDelete(id PageID, slot int) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(id))
	return binary.BigEndian.AppendUint16(b, uint16(slot))
}

func decodeDelete(p []byte) (PageID, int, error) {
	if len(p) != 6 {
		return 0, 0, fmt.Errorf("%w: delete payload", ErrWALCorrupt)
	}
	return PageID(binary.BigEndian.Uint32(p)), int(binary.BigEndian.Uint16(p[4:])), nil
}

func encodeCreateIndex(name, file string, col int) []byte {
	b := putString(nil, name)
	b = putString(b, file)
	return binary.BigEndian.AppendUint16(b, uint16(col))
}

func decodeCreateIndex(p []byte) (name, file string, col int, err error) {
	name, p, err = getString(p)
	if err != nil {
		return "", "", 0, err
	}
	file, p, err = getString(p)
	if err != nil || len(p) != 2 {
		return "", "", 0, fmt.Errorf("%w: create-index payload", ErrWALCorrupt)
	}
	return name, file, int(binary.BigEndian.Uint16(p)), nil
}

func encodeTxn(id uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, id)
}

func decodeTxn(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: txn payload", ErrWALCorrupt)
	}
	return binary.BigEndian.Uint64(p), nil
}

func encodeMeta(key, value string) []byte {
	return putString(putString(nil, key), value)
}

func decodeMeta(p []byte) (key, value string, err error) {
	key, p, err = getString(p)
	if err != nil {
		return "", "", err
	}
	value, p, err = getString(p)
	if err != nil || len(p) != 0 {
		return "", "", fmt.Errorf("%w: meta payload", ErrWALCorrupt)
	}
	return key, value, nil
}

// checkpointImage is the metadata snapshot a checkpoint record
// carries: everything recovery needs besides page contents.
type checkpointImage struct {
	redoPos  int64
	nextPage PageID
	files    []checkpointFile
	indexes  []IndexDef
	meta     map[string]string
}

type checkpointFile struct {
	name  string
	pages []PageID
}

func encodeCheckpoint(img checkpointImage) []byte {
	b := binary.BigEndian.AppendUint64(nil, uint64(img.redoPos))
	b = binary.BigEndian.AppendUint32(b, uint32(img.nextPage))
	b = binary.BigEndian.AppendUint32(b, uint32(len(img.files)))
	for _, f := range img.files {
		b = putString(b, f.name)
		b = binary.BigEndian.AppendUint32(b, uint32(len(f.pages)))
		for _, id := range f.pages {
			b = binary.BigEndian.AppendUint32(b, uint32(id))
		}
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(img.indexes)))
	for _, ix := range img.indexes {
		b = putString(b, ix.Name)
		b = putString(b, ix.File)
		b = binary.BigEndian.AppendUint16(b, uint16(ix.Col))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(img.meta)))
	for _, k := range sortedKeys(img.meta) {
		b = putString(b, k)
		b = putString(b, img.meta[k])
	}
	return b
}

func decodeCheckpoint(p []byte) (checkpointImage, error) {
	var img checkpointImage
	bad := func() (checkpointImage, error) {
		return img, fmt.Errorf("%w: checkpoint payload", ErrWALCorrupt)
	}
	if len(p) < checkpointExtra+4+4 {
		return bad()
	}
	img.redoPos = int64(binary.BigEndian.Uint64(p))
	img.nextPage = PageID(binary.BigEndian.Uint32(p[8:]))
	p = p[12:]
	nf := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	for i := 0; i < nf; i++ {
		name, rest, err := getString(p)
		if err != nil || len(rest) < 4 {
			return bad()
		}
		np := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < 4*np {
			return bad()
		}
		f := checkpointFile{name: name, pages: make([]PageID, np)}
		for j := 0; j < np; j++ {
			f.pages[j] = PageID(binary.BigEndian.Uint32(rest[4*j:]))
		}
		img.files = append(img.files, f)
		p = rest[4*np:]
	}
	if len(p) < 4 {
		return bad()
	}
	ni := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	for i := 0; i < ni; i++ {
		name, rest, err := getString(p)
		if err != nil {
			return bad()
		}
		file, rest, err := getString(rest)
		if err != nil || len(rest) < 2 {
			return bad()
		}
		img.indexes = append(img.indexes, IndexDef{
			Name: name, File: file, Col: int(binary.BigEndian.Uint16(rest)),
		})
		p = rest[2:]
	}
	if len(p) < 4 {
		return bad()
	}
	nm := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	img.meta = map[string]string{}
	for i := 0; i < nm; i++ {
		k, rest, err := getString(p)
		if err != nil {
			return bad()
		}
		v, rest, err := getString(rest)
		if err != nil {
			return bad()
		}
		img.meta[k] = v
		p = rest
	}
	if len(p) != 0 {
		return bad()
	}
	return img, nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort: meta maps are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
