// Versioned records: the one stored record format. A record is a u16
// marker that cannot collide with a field count, then the creating and
// deleting transaction ids, then the tuple encoding (EncodeTuple).
// Every record on every page is written by a transaction, so every
// record carries the header; decoding a record without it is
// corruption.
package storage

import (
	"encoding/binary"
	"fmt"
)

// versionMarker heads every record. A tuple encoding starts with its
// u16 field count, and a 4 KiB page cannot hold 0xFFFF fields, so a
// stray tuple image is never mistaken for a record.
const versionMarker = 0xFFFF

// versionHeaderSize: u16 marker | u64 xmin | u64 xmax.
const versionHeaderSize = 18

// Version is a record's MVCC header: Xmin is the transaction that
// created the version, Xmax the transaction that deleted it (0 = not
// deleted).
type Version struct {
	Xmin, Xmax uint64
}

// Visibility decides whether a record version is visible to a reader
// — the snapshot closure the transaction layer threads through scans.
// It must be safe for concurrent use (parallel scan workers share
// one).
type Visibility func(Version) bool

// EncodeRecord serialises a tuple with its MVCC header: the image a
// page stores.
func EncodeRecord(t Tuple, v Version) []byte {
	body := EncodeTuple(t)
	buf := make([]byte, versionHeaderSize+len(body))
	binary.BigEndian.PutUint16(buf[0:2], versionMarker)
	binary.BigEndian.PutUint64(buf[2:10], v.Xmin)
	binary.BigEndian.PutUint64(buf[10:18], v.Xmax)
	copy(buf[versionHeaderSize:], body)
	return buf
}

// recordParts splits a stored record into its tuple encoding (at least
// the u16 field count) and its version.
func recordParts(b []byte) ([]byte, Version, error) {
	if len(b) < versionHeaderSize+2 || binary.BigEndian.Uint16(b) != versionMarker {
		return nil, Version{}, fmt.Errorf("%w: no version header", ErrCorruptRecord)
	}
	v := Version{
		Xmin: binary.BigEndian.Uint64(b[2:10]),
		Xmax: binary.BigEndian.Uint64(b[10:18]),
	}
	return b[versionHeaderSize:], v, nil
}

// RecordVersion reads a stored record's version without decoding the
// tuple.
func RecordVersion(b []byte) (Version, error) {
	_, v, err := recordParts(b)
	return v, err
}

// DecodeRecord parses a stored record into its tuple and version.
func DecodeRecord(b []byte) (Tuple, Version, error) {
	body, v, err := recordParts(b)
	if err != nil {
		return nil, Version{}, err
	}
	t, err := DecodeTuple(body)
	return t, v, err
}

// stampXmax returns a copy of record b with its deleting transaction
// set. The record keeps its length, so the rewrite is in place on the
// page: a claim never grows or moves a record.
func stampXmax(b []byte, xmax uint64) []byte {
	out := append([]byte(nil), b...)
	binary.BigEndian.PutUint64(out[10:18], xmax)
	return out
}
