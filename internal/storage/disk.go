// Pluggable byte-addressed I/O: the seam between the durability layer
// (WAL, page file) and whatever actually persists the bytes. The
// engine's own tests run over MemDisk; the internal/fault package
// wraps any DiskFile with deterministic crash points, torn writes and
// injected I/O errors, which is how recovery is tested at every WAL
// barrier without a real disk or a real kill -9.
package storage

import (
	"errors"
	"fmt"
	"sync"
)

// DiskFile is the minimal stable-storage contract the WAL and page
// file are written against. Implementations must be safe for
// concurrent use. Sync is the fsync barrier: a write is only
// crash-durable once a subsequent Sync has returned.
type DiskFile interface {
	// ReadAt reads len(p) bytes at off. Reads entirely past the end
	// return 0, io.EOF-like short counts are reported via n < len(p)
	// with a nil error only at end of file.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt writes p at off, extending the file as needed.
	WriteAt(p []byte, off int64) (int, error)
	// Sync flushes all completed writes to stable storage.
	Sync() error
	// Size returns the current file length in bytes.
	Size() (int64, error)
	// Truncate sets the file length.
	Truncate(size int64) error
}

// ErrShortWrite is returned when a DiskFile applied fewer bytes than
// requested (a torn write observed synchronously).
var ErrShortWrite = errors.New("storage: short write")

// MemDisk is an in-memory DiskFile: the simulated stable storage the
// crash tests snapshot and reopen. Sync is a no-op (memory is always
// "durable" until the harness says otherwise); the fault layer is
// where sync barriers gain meaning. The device is len(buf) bytes long;
// capacity beyond that is spare room, never content.
type MemDisk struct {
	mu  sync.Mutex
	buf []byte
}

// grow extends the device to n bytes, zero-filled past the old length.
// Capacity doubles, so a run of appends copies O(final size) bytes in
// total instead of the whole device per append; spare capacity may hold
// a tail that Truncate cut off, so it is cleared as it is re-exposed.
func (d *MemDisk) grow(n int64) {
	old := len(d.buf)
	if n <= int64(cap(d.buf)) {
		d.buf = d.buf[:n]
		clear(d.buf[old:])
		return
	}
	grown := make([]byte, n, max(n, 2*int64(cap(d.buf))))
	copy(grown, d.buf)
	d.buf = grown
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// NewMemDiskFrom returns a disk initialised with a copy of data (how
// crash tests reopen a snapshot).
func NewMemDiskFrom(data []byte) *MemDisk {
	return &MemDisk{buf: append([]byte(nil), data...)}
}

// ReadAt implements DiskFile.
func (d *MemDisk) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("storage: negative read offset %d", off)
	}
	if off >= int64(len(d.buf)) {
		return 0, nil
	}
	n := copy(p, d.buf[off:])
	return n, nil
}

// WriteAt implements DiskFile.
func (d *MemDisk) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("storage: negative write offset %d", off)
	}
	if need := off + int64(len(p)); need > int64(len(d.buf)) {
		d.grow(need)
	}
	copy(d.buf[off:], p)
	return len(p), nil
}

// Sync implements DiskFile (no-op: memory).
func (d *MemDisk) Sync() error { return nil }

// Size implements DiskFile.
func (d *MemDisk) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.buf)), nil
}

// Truncate implements DiskFile.
func (d *MemDisk) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("storage: negative truncate %d", size)
	}
	if size <= int64(len(d.buf)) {
		d.buf = d.buf[:size]
		return nil
	}
	d.grow(size)
	return nil
}

// Bytes returns a copy of the disk contents — the crash-test snapshot
// primitive: capture, truncate to a boundary, reopen, recover.
func (d *MemDisk) Bytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.buf...)
}
