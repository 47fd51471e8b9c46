// PageFile: fixed-frame page persistence with per-frame checksums.
// Each frame is the page image followed by its LSN and a CRC32-C over
// both, so a torn or bit-flipped frame is detected at read time and
// quarantined instead of silently served — the checkpoint target the
// WAL's redo pass recovers against.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// pageFileMagic heads the page file; version bumps invalidate old
// images.
var pageFileMagic = []byte("ADMPG001")

const (
	pageFileHeader = 8                       // magic
	frameTrailer   = 12                      // u64 LSN + u32 CRC
	frameSize      = PageSize + frameTrailer // one on-disk frame
	framePayload   = PageSize + 8            // bytes covered by the CRC
)

// castagnoli is the CRC32-C table used for page frames and WAL
// records (hardware-accelerated on common platforms).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Page-file errors.
var (
	// ErrChecksum reports a frame whose stored CRC does not match its
	// contents — a torn write or bit rot.
	ErrChecksum = errors.New("storage: page checksum mismatch")
	// ErrNoFrame reports a frame that has never been written.
	ErrNoFrame = errors.New("storage: page frame not in page file")
)

// PageFile persists page images over a DiskFile, one fixed-size frame
// per PageID. It is safe for concurrent use to the extent the
// underlying DiskFile is; the DB serialises checkpoint writes anyway.
type PageFile struct {
	disk DiskFile
}

// OpenPageFile validates or writes the header and returns the file.
func OpenPageFile(disk DiskFile) (*PageFile, error) {
	size, err := disk.Size()
	if err != nil {
		return nil, err
	}
	// size < header means fresh, or a crash tore the magic write; no
	// frame can exist either way, so reinitialise.
	if size < pageFileHeader {
		if _, err := disk.WriteAt(pageFileMagic, 0); err != nil {
			return nil, err
		}
		return &PageFile{disk: disk}, nil
	}
	head := make([]byte, pageFileHeader)
	if n, err := disk.ReadAt(head, 0); err != nil || n < pageFileHeader {
		return nil, fmt.Errorf("storage: page file header unreadable (n=%d): %w", n, err)
	}
	if string(head) != string(pageFileMagic) {
		return nil, fmt.Errorf("storage: bad page file magic %q", head)
	}
	return &PageFile{disk: disk}, nil
}

func frameOffset(id PageID) int64 {
	return pageFileHeader + int64(id)*frameSize
}

// WritePage persists one page image with its LSN and checksum. The
// caller supplies a stable snapshot of the page bytes (copied under
// the page latch).
func (f *PageFile) WritePage(id PageID, img []byte, lsn uint64) error {
	if len(img) != PageSize {
		return fmt.Errorf("storage: page image is %d bytes, want %d", len(img), PageSize)
	}
	frame := make([]byte, frameSize)
	copy(frame, img)
	binary.BigEndian.PutUint64(frame[PageSize:], lsn)
	sum := crc32.Checksum(frame[:framePayload], castagnoli)
	binary.BigEndian.PutUint32(frame[framePayload:], sum)
	if n, err := f.disk.WriteAt(frame, frameOffset(id)); err != nil {
		return err
	} else if n != frameSize {
		return fmt.Errorf("%w: frame %d: %d of %d bytes", ErrShortWrite, id, n, frameSize)
	}
	return nil
}

// ReadPage loads one frame, verifying its checksum. ErrNoFrame means
// the frame was never written (the page predates any checkpoint);
// ErrChecksum means the frame exists but is corrupt.
func (f *PageFile) ReadPage(id PageID) ([]byte, uint64, error) {
	frame := make([]byte, frameSize)
	n, err := f.disk.ReadAt(frame, frameOffset(id))
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("%w: %d", ErrNoFrame, id)
	}
	if n < frameSize {
		return nil, 0, fmt.Errorf("%w: frame %d truncated at %d bytes", ErrChecksum, id, n)
	}
	want := binary.BigEndian.Uint32(frame[framePayload:])
	if got := crc32.Checksum(frame[:framePayload], castagnoli); got != want {
		return nil, 0, fmt.Errorf("%w: frame %d: crc %08x, want %08x", ErrChecksum, id, got, want)
	}
	lsn := binary.BigEndian.Uint64(frame[PageSize:])
	return frame[:PageSize], lsn, nil
}

// FrameLSN returns the stored LSN and CRC of a frame without
// verifying page contents (the checkpoint scrub reads only the trailer
// of a page whose LSN has moved on).
func (f *PageFile) FrameLSN(id PageID) (lsn uint64, crc uint32, err error) {
	trailer := make([]byte, frameTrailer)
	n, err := f.disk.ReadAt(trailer, frameOffset(id)+PageSize)
	if err != nil {
		return 0, 0, err
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("%w: %d", ErrNoFrame, id)
	}
	if n < frameTrailer {
		return 0, 0, fmt.Errorf("%w: frame %d trailer truncated", ErrChecksum, id)
	}
	return binary.BigEndian.Uint64(trailer), binary.BigEndian.Uint32(trailer[8:]), nil
}

// Sync flushes the page file (the checkpoint's data barrier).
func (f *PageFile) Sync() error { return f.disk.Sync() }
