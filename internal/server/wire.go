// Package server is the network front door: a TCP server speaking a
// length-prefixed wire protocol over internal/session.DBSession, with
// per-statement deadlines and memory quotas threaded into the morsel
// pipelines, a bounded admission queue, and a monitor/constraint-fed
// degradation ladder that sheds load, shrinks batches and drops
// worker counts when the latency SLO slips — the paper's Patia
// flash-crowd adaptation turned on the database itself.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"

	"github.com/adm-project/adm/internal/storage"
)

// Wire protocol. Every frame is:
//
//	uint32 big-endian length  (of type byte + payload)
//	byte   type
//	[]byte payload
//
// Client to server:
//
//	'H' hello    payload = auth token (stub: compared verbatim)
//	'Q' query    payload = one SQL statement
//	'X' goodbye  graceful close
//
// Server to client:
//
//	'h' hello-ok
//	'R' result header  uvarint ncols, ncols x (uvarint len, name)
//	'D' row chunk      uvarint nrows, rows as (uvarint width, values)
//	'C' complete       uvarint affected, uvarint nrows (all chunks')
//	'E' error          byte code, message text
//
// A reply is 'R', any number of 'D', then 'C'; or 'E', alone or after
// an 'R' and some 'D' frames. Results stream: rows leave the server as
// the pipeline produces them, in 'D' chunks of rowChunk rows, so
// neither end holds a frame the size of the result — and a statement
// can fail after its first rows are out, whereupon the client drops
// them. Chunking also lets the fault matrix kill a connection
// mid-result.
const (
	frameHello   = 'H'
	frameQuery   = 'Q'
	frameGoodbye = 'X'
	frameHelloOK = 'h'
	frameResult  = 'R'
	frameRows    = 'D'
	frameDone    = 'C'
	frameError   = 'E'
)

// Error codes carried by 'E' frames. Conflict and Overloaded are
// retryable: the statement failed cleanly without side effects (a
// conflicted transaction has been rolled back) and an immediate or
// backed-off retry is the protocol-intended response.
const (
	// CodeInternal is any non-classified execution error.
	CodeInternal byte = 1
	// CodeConflict maps storage.ErrWriteConflict: first-committer-wins
	// lost; the transaction rolled back; retry the transaction.
	CodeConflict byte = 2
	// CodeOverloaded is admission-control load shedding; retry with
	// backoff.
	CodeOverloaded byte = 3
	// CodeDeadline is the per-statement deadline firing.
	CodeDeadline byte = 4
	// CodeQuota is the per-session statement memory budget overflowing.
	CodeQuota byte = 5
	// CodeAuth is a rejected hello token.
	CodeAuth byte = 6
	// CodeBadFrame is a malformed or oversized frame.
	CodeBadFrame byte = 7
)

// RetryableCode reports whether an error code invites a retry.
func RetryableCode(code byte) bool {
	return code == CodeConflict || code == CodeOverloaded
}

// maxFrame caps a single frame; a length prefix beyond it poisons the
// connection (a torn or hostile stream, not a big result — results
// chunk).
const maxFrame = 8 << 20

// rowChunk is the rows-per-'D'-frame granularity.
const rowChunk = 256

// maxKeptBuf caps the read and encode buffers a connection keeps
// between frames and statements. A larger frame gets a one-off buffer, so one huge
// statement or row chunk does not pin its size for the connection's
// life.
const maxKeptBuf = 64 << 10

// frameConn frames a net.Conn. Reads are buffered; writes are
// buffered and covered by an optional write deadline per flush, so a
// stalled reader (client that stopped draining) fails the write
// instead of wedging the serving goroutine forever.
//
// The connection reuses rbuf, kept up to maxKeptBuf, which every
// ReadFrame payload aliases — valid only until the next ReadFrame, so
// callers copy what they keep. WriteFrame copies its payload into the
// bufio writer or the socket before it returns, so a caller may reuse
// its encoding buffer for the next frame (resultWriter does).
type frameConn struct {
	c            net.Conn
	r            *bufio.Reader
	w            *bufio.Writer
	writeTimeout time.Duration
	hdr          [5]byte
	rbuf         []byte
}

func newFrameConn(c net.Conn, writeTimeout time.Duration) *frameConn {
	return &frameConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c), writeTimeout: writeTimeout}
}

// ReadFrame reads one frame. A stream that ends cleanly between
// frames returns io.EOF; one torn mid-frame returns
// io.ErrUnexpectedEOF. The payload aliases the connection's read
// buffer and is overwritten by the next ReadFrame.
func (fc *frameConn) ReadFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(fc.r, fc.hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(fc.hdr[:4])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("server: bad frame length %d", n)
	}
	var buf []byte
	if n <= maxKeptBuf {
		fc.rbuf = slices.Grow(fc.rbuf[:0], int(n))
		buf = fc.rbuf[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(fc.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// WriteFrame buffers one frame; call Flush to push a complete
// response. The write deadline is armed here so a response to a
// stalled reader fails once the kernel buffer is full.
func (fc *frameConn) WriteFrame(typ byte, payload []byte) error {
	if err := fc.writeHeader(typ, len(payload)); err != nil {
		return err
	}
	_, err := fc.w.Write(payload)
	return err
}

// WriteFrameString is WriteFrame for a string payload, with no []byte
// copy of it.
func (fc *frameConn) WriteFrameString(typ byte, payload string) error {
	if err := fc.writeHeader(typ, len(payload)); err != nil {
		return err
	}
	_, err := fc.w.WriteString(payload)
	return err
}

// writeHeader arms the write deadline and buffers a frame's length
// prefix and type byte for an n-byte payload.
func (fc *frameConn) writeHeader(typ byte, n int) error {
	if n+1 > maxFrame {
		return fmt.Errorf("server: frame too large (%d bytes)", n+1)
	}
	if fc.writeTimeout > 0 {
		if err := fc.c.SetWriteDeadline(time.Now().Add(fc.writeTimeout)); err != nil {
			return err
		}
	}
	binary.BigEndian.PutUint32(fc.hdr[:4], uint32(n+1))
	fc.hdr[4] = typ
	_, err := fc.w.Write(fc.hdr[:5])
	return err
}

// Flush pushes buffered frames to the socket.
func (fc *frameConn) Flush() error {
	if fc.writeTimeout > 0 {
		if err := fc.c.SetWriteDeadline(time.Now().Add(fc.writeTimeout)); err != nil {
			return err
		}
	}
	return fc.w.Flush()
}

// ---------------------------------------------------------------------------
// Value and row codec.

// Value wire kinds (one byte each).
const (
	wireNull   = 0
	wireInt    = 1
	wireFloat  = 2
	wireString = 3
	wireBool   = 4
)

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendValue(buf []byte, v storage.Value) []byte {
	switch v.Kind {
	case storage.KindInt:
		buf = append(buf, wireInt)
		return binary.AppendVarint(buf, v.Int)
	case storage.KindFloat:
		buf = append(buf, wireFloat)
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Float))
	case storage.KindString:
		buf = append(buf, wireString)
		buf = appendUvarint(buf, uint64(len(v.Str)))
		return append(buf, v.Str...)
	case storage.KindBool:
		b := byte(0)
		if v.Bool {
			b = 1
		}
		return append(buf, wireBool, b)
	default:
		return append(buf, wireNull)
	}
}

// appendRow encodes one tuple: uvarint width, then values.
func appendRow(buf []byte, t storage.Tuple) []byte {
	buf = appendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = appendValue(buf, v)
	}
	return buf
}

var errTruncated = fmt.Errorf("server: truncated frame payload")

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, b[n:], nil
}

func readValue(b []byte) (storage.Value, []byte, error) {
	if len(b) < 1 {
		return storage.Value{}, nil, errTruncated
	}
	kind, b := b[0], b[1:]
	switch kind {
	case wireNull:
		return storage.NullValue(), b, nil
	case wireInt:
		v, n := binary.Varint(b)
		if n <= 0 {
			return storage.Value{}, nil, errTruncated
		}
		return storage.IntValue(v), b[n:], nil
	case wireFloat:
		if len(b) < 8 {
			return storage.Value{}, nil, errTruncated
		}
		return storage.FloatValue(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], nil
	case wireString:
		n, rest, err := readUvarint(b)
		if err != nil || uint64(len(rest)) < n {
			return storage.Value{}, nil, errTruncated
		}
		return storage.StringValue(string(rest[:n])), rest[n:], nil
	case wireBool:
		if len(b) < 1 {
			return storage.Value{}, nil, errTruncated
		}
		return storage.BoolValue(b[0] != 0), b[1:], nil
	default:
		return storage.Value{}, nil, fmt.Errorf("server: unknown wire value kind %d", kind)
	}
}

func readRow(b []byte) (storage.Tuple, []byte, error) {
	w, b, err := readUvarint(b)
	// The width sizes an allocation and comes off the wire: every
	// value occupies at least one byte of what is left of the payload.
	if err != nil || w > uint64(len(b)) {
		return nil, nil, errTruncated
	}
	t := make(storage.Tuple, 0, w)
	for i := uint64(0); i < w; i++ {
		var v storage.Value
		v, b, err = readValue(b)
		if err != nil {
			return nil, nil, err
		}
		t = append(t, v)
	}
	return t, b, nil
}
