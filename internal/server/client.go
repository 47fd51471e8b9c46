package server

import (
	"fmt"
	"net"
	"slices"
	"time"

	"github.com/adm-project/adm/internal/storage"
)

// RemoteError is a server-reported statement failure, carrying the
// wire error code so clients can distinguish retryable outcomes
// (write conflicts, load shedding) from hard failures.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error (code %d): %s", e.Code, e.Msg)
}

// Retryable reports whether the protocol invites a retry: the
// statement failed cleanly (conflicted transaction rolled back, or
// shed before execution) and may succeed if re-issued.
func (e *RemoteError) Retryable() bool { return RetryableCode(e.Code) }

// ClientResult is one statement's decoded response.
type ClientResult struct {
	Cols     []string
	Rows     []storage.Tuple
	Affected int
}

// Client is a minimal admsqld wire-protocol client. Not safe for
// concurrent use — it is one connection, one statement at a time,
// matching the session semantics on the other end.
type Client struct {
	fc *frameConn
	nc net.Conn
}

// Dial connects, authenticates with token, and returns a live client.
func Dial(addr, token string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{fc: newFrameConn(nc, 10*time.Second), nc: nc}
	if err := c.hello(token); err != nil {
		return nil, closeJoin(nc, err)
	}
	return c, nil
}

// hello authenticates a fresh connection with token.
func (c *Client) hello(token string) error {
	if err := c.fc.WriteFrameString(frameHello, token); err != nil {
		return err
	}
	if err := c.fc.Flush(); err != nil {
		return err
	}
	typ, payload, err := c.fc.ReadFrame()
	if err != nil {
		return err
	}
	if typ == frameError {
		return decodeErr(payload)
	}
	if typ != frameHelloOK {
		return fmt.Errorf("server: unexpected hello reply %q", typ)
	}
	return nil
}

func closeJoin(nc net.Conn, err error) error {
	_ = nc.Close() // the dial error is the story; close is best-effort
	return err
}

// Query sends one SQL statement and decodes the full response.
// A *RemoteError means the server is healthy and reported a
// statement-level failure — also one that arrives after some of the
// rows, which are then dropped; any other error poisons the connection.
func (c *Client) Query(sql string) (*ClientResult, error) {
	if err := c.fc.WriteFrameString(frameQuery, sql); err != nil {
		return nil, err
	}
	if err := c.fc.Flush(); err != nil {
		return nil, err
	}
	typ, payload, err := c.fc.ReadFrame()
	if err != nil {
		return nil, err
	}
	if typ == frameError {
		return nil, decodeErr(payload)
	}
	if typ != frameResult {
		return nil, fmt.Errorf("server: unexpected reply frame %q", typ)
	}
	res, err := decodeHeader(payload)
	if err != nil {
		return nil, err
	}
	var stack [4][]storage.Tuple
	chunks := stack[:0]
	for {
		typ, payload, err := c.fc.ReadFrame()
		if err != nil {
			return nil, err
		}
		switch typ {
		case frameRows:
			rows, err := decodeRows(payload)
			if err != nil {
				return nil, err
			}
			chunks = append(chunks, rows)
		case frameDone:
			if err := res.complete(payload, chunks); err != nil {
				return nil, err
			}
			return res, nil
		case frameError:
			return nil, decodeErr(payload)
		default:
			return nil, fmt.Errorf("server: expected row chunk or completion, got %q", typ)
		}
	}
}

// Close sends goodbye and drops the connection.
func (c *Client) Close() error {
	werr := c.fc.WriteFrame(frameGoodbye, nil)
	if werr == nil {
		werr = c.fc.Flush()
	}
	cerr := c.nc.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func decodeErr(payload []byte) error {
	if len(payload) < 1 {
		return &RemoteError{Code: CodeInternal, Msg: "empty error frame"}
	}
	return &RemoteError{Code: payload[0], Msg: string(payload[1:])}
}

func decodeHeader(b []byte) (*ClientResult, error) {
	ncols, b, err := readUvarint(b)
	// As in readRow: a column name occupies at least its length byte.
	if err != nil || ncols > uint64(len(b)) {
		return nil, errTruncated
	}
	res := &ClientResult{Cols: make([]string, 0, ncols)}
	for i := uint64(0); i < ncols; i++ {
		var n uint64
		n, b, err = readUvarint(b)
		if err != nil || uint64(len(b)) < n {
			return nil, errTruncated
		}
		res.Cols = append(res.Cols, string(b[:n]))
		b = b[n:]
	}
	return res, nil
}

// decodeRows decodes one 'D' chunk into a slice of its row count.
func decodeRows(b []byte) ([]storage.Tuple, error) {
	n, b, err := readUvarint(b)
	// The count sizes an allocation and comes off the wire: every row
	// occupies at least its width byte.
	if err != nil || n > uint64(len(b)) {
		return nil, errTruncated
	}
	rows := make([]storage.Tuple, n)
	for i := range rows {
		if rows[i], b, err = readRow(b); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// complete reads the 'C' payload and joins the row chunks once, after
// checking that the server counted the rows that arrived.
func (res *ClientResult) complete(b []byte, chunks [][]storage.Tuple) error {
	affected, b, err := readUvarint(b)
	if err != nil {
		return err
	}
	want, _, err := readUvarint(b)
	if err != nil {
		return err
	}
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	if uint64(n) != want {
		return fmt.Errorf("server: completion counts %d rows, %d arrived", want, n)
	}
	res.Affected = int(affected)
	if len(chunks) == 1 {
		res.Rows = chunks[0]
	} else {
		res.Rows = slices.Concat(chunks...)
	}
	return nil
}
