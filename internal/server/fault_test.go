package server

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/adm-project/adm/internal/fault"
	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
)

// faultSeed returns the deterministic seed for the fault matrix,
// overridable with ADM_FAULT_SEED (the CI matrix loops over seeds).
func faultSeed(t *testing.T) uint64 {
	t.Helper()
	if s := os.Getenv("ADM_FAULT_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			t.Fatalf("ADM_FAULT_SEED: %v", err)
		}
		return v
	}
	return 1
}

// rawClient speaks the wire protocol with direct frame control so
// tests can tear connections at arbitrary points.
type rawClient struct {
	nc net.Conn
	fc *frameConn
}

func dialRawT(t *testing.T, srv *Server) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rc := &rawClient{nc: nc, fc: newFrameConn(nc, 5*time.Second)}
	rc.send(t, frameHello, nil)
	typ, _, err := rc.fc.ReadFrame()
	if err != nil || typ != frameHelloOK {
		t.Fatalf("handshake: frame %q err %v", typ, err)
	}
	return rc
}

func (rc *rawClient) send(t *testing.T, typ byte, payload []byte) {
	t.Helper()
	if err := rc.fc.WriteFrame(typ, payload); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	if err := rc.fc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// query sends a statement and fully drains the response, returning
// the terminal frame type ('C' or 'E').
func (rc *rawClient) query(t *testing.T, sql string) byte {
	t.Helper()
	rc.send(t, frameQuery, []byte(sql))
	for {
		typ, _, err := rc.fc.ReadFrame()
		if err != nil {
			t.Fatalf("read response: %v", err)
		}
		if typ == frameDone || typ == frameError {
			return typ
		}
	}
}

// waitDrained polls until the server has torn down every fault
// scenario: zero live transactions and the pooled-batch ledger back
// at its baseline.
func waitDrained(t *testing.T, db *storage.DB, batchBase int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		txns := db.Txns().Active()
		batches := operators.OutstandingBatches()
		if txns == 0 && batches <= batchBase {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: %d active txns, %d outstanding batches (baseline %d)",
				txns, batches, batchBase)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitConnsGone polls until the server has torn down every tracked
// connection — proof no serving goroutine is wedged on a dead client.
func waitConnsGone(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still tracked; a serving goroutine is wedged", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConnectionFaultMatrix is the crash/disconnect matrix: torn
// frames, mid-result disconnects, stalled readers hitting the write
// deadline (on a materialised join's reply and inside the workers of a
// streamed scan), abrupt death inside an explicit transaction, and client
// death mid-group-commit — all asserting the server leaks no
// transactions, no pooled batches, and no goroutines.
func TestConnectionFaultMatrix(t *testing.T) {
	srv, db := newServerFixture(t, Config{
		StatementTimeout: 5 * time.Second,
		WriteTimeout:     250 * time.Millisecond,
		MemQuota:         256 << 20, // the stalled-reader join materialises ~36MB
	})
	fillTable(t, srv, "wide", 2000, 200) // a ~0.4MB streamed scan
	rng := fault.NewRand(faultSeed(t))

	// Warm up (pools, lazy init) before taking leak baselines.
	warm := dialT(t, srv, "")
	if _, err := warm.Query("SELECT p FROM j"); err != nil {
		t.Fatal(err)
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, db, 1<<62)
	batchBase := operators.OutstandingBatches()
	goroBase := runtime.NumGoroutine()

	t.Run("TornFrame", func(t *testing.T) {
		for i := 0; i < 8; i++ {
			rc := dialRawT(t, srv)
			// A frame header promising more than we deliver, cut at a
			// seed-chosen point inside the payload.
			sql := []byte("SELECT k FROM kv")
			var hdr [5]byte
			binary.BigEndian.PutUint32(hdr[:4], uint32(len(sql)+1))
			hdr[4] = frameQuery
			cut := int(rng.Uint64() % uint64(len(sql)))
			if _, err := rc.nc.Write(append(hdr[:], sql[:cut]...)); err != nil {
				t.Fatal(err)
			}
			if err := rc.nc.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// A hostile length prefix must poison the connection, not
		// allocate 4GB.
		rc := dialRawT(t, srv)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 1<<31)
		if _, err := rc.nc.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if err := rc.nc.Close(); err != nil {
			t.Fatal(err)
		}
		waitConnsGone(t, srv)
		waitDrained(t, db, batchBase)
	})

	t.Run("MidResultDisconnect", func(t *testing.T) {
		for i := 0; i < 8; i++ {
			rc := dialRawT(t, srv)
			rc.send(t, frameQuery, []byte("SELECT p FROM j"))
			// Read a seed-chosen number of response frames (the 400-row
			// result spans header + 2 chunks + done), then vanish.
			drain := int(rng.Uint64() % 3)
			for j := 0; j < drain; j++ {
				if _, _, err := rc.fc.ReadFrame(); err != nil {
					t.Fatalf("drain frame %d: %v", j, err)
				}
			}
			if err := rc.nc.Close(); err != nil {
				t.Fatal(err)
			}
		}
		waitConnsGone(t, srv)
		waitDrained(t, db, batchBase)
	})

	t.Run("StalledReader", func(t *testing.T) {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		// Shrink the receive window so the ~3.5MB join result cannot
		// fit in kernel buffers: the server's flush must stall and its
		// write deadline must fire, freeing the serving goroutine.
		if err := nc.(*net.TCPConn).SetReadBuffer(2048); err != nil {
			t.Fatal(err)
		}
		rc := &rawClient{nc: nc, fc: newFrameConn(nc, 5*time.Second)}
		rc.send(t, frameHello, nil)
		if typ, _, err := rc.fc.ReadFrame(); err != nil || typ != frameHelloOK {
			t.Fatalf("handshake: frame %q err %v", typ, err)
		}
		rc.send(t, frameQuery, []byte("SELECT a.p, b.p FROM j a JOIN j b ON a.g = b.g"))
		// Do not read. The server must give up on its own — the write
		// deadline fires once kernel buffers fill — rather than wedge
		// the serving goroutine forever.
		waitConnsGone(t, srv)
		waitDrained(t, db, batchBase)
	})

	t.Run("StalledReaderStreamedScan", func(t *testing.T) {
		// A scan streams: its rows go to the socket from the morsel
		// workers as they claim pages, so the write that stalls, and
		// the deadline that fails it, are inside a worker. The server's
		// send buffer is pinned small once the connection is up, so a
		// result of a few hundred KB cannot fit in kernel buffers.
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if err := nc.(*net.TCPConn).SetReadBuffer(2048); err != nil {
			t.Fatal(err)
		}
		rc := &rawClient{nc: nc, fc: newFrameConn(nc, 5*time.Second)}
		rc.send(t, frameHello, nil)
		if typ, _, err := rc.fc.ReadFrame(); err != nil || typ != frameHelloOK {
			t.Fatalf("handshake: frame %q err %v", typ, err)
		}
		srv.mu.Lock()
		for c := range srv.conns {
			if err := c.(*net.TCPConn).SetWriteBuffer(4096); err != nil {
				t.Error(err)
			}
		}
		srv.mu.Unlock()
		before := srv.Stats()
		rc.send(t, frameQuery, []byte("SELECT i, s FROM wide"))
		// Read the header, then stop reading.
		if typ, _, err := rc.fc.ReadFrame(); err != nil || typ != frameResult {
			t.Fatalf("first reply frame %q err %v, want the result header", typ, err)
		}
		waitConnsGone(t, srv)
		waitDrained(t, db, batchBase)
		// The statement failed while it ran: a stall after it had
		// completed would count it served.
		if after := srv.Stats(); after.Served != before.Served || after.Errors != before.Errors+1 {
			t.Fatalf("served %d -> %d, errors %d -> %d; want the statement failed mid-stream",
				before.Served, after.Served, before.Errors, after.Errors)
		}
	})

	t.Run("DeathInTxn", func(t *testing.T) {
		for i := 0; i < 4; i++ {
			rc := dialRawT(t, srv)
			if typ := rc.query(t, "BEGIN"); typ != frameDone {
				t.Fatalf("BEGIN -> %q", typ)
			}
			if typ := rc.query(t, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'doomed')", 9000+i)); typ != frameDone {
				t.Fatalf("INSERT -> %q", typ)
			}
			if err := rc.nc.Close(); err != nil {
				t.Fatal(err)
			}
		}
		waitConnsGone(t, srv)
		waitDrained(t, db, batchBase)
		// Teardown rolled the transactions back: nothing leaked into
		// the visible state.
		c := dialT(t, srv, "")
		defer c.Close()
		res, err := c.Query("SELECT k FROM kv WHERE k >= 9000")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("%d doomed rows survived client death", len(res.Rows))
		}
	})

	t.Run("DeathMidGroupCommit", func(t *testing.T) {
		// Concurrent committers; the seed picks which ones die right
		// after sending COMMIT without reading the response — their
		// serving goroutines may be inside the group-commit protocol
		// (even as leader) when the client vanishes.
		const n = 8
		deserters := rng.Uint64()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rc := dialRawT(t, srv)
				if typ := rc.query(t, "BEGIN"); typ != frameDone {
					t.Errorf("BEGIN -> %q", typ)
					return
				}
				sql := fmt.Sprintf("INSERT INTO kv VALUES (%d, 'group')", 9500+i)
				if typ := rc.query(t, sql); typ != frameDone {
					t.Errorf("INSERT -> %q", typ)
					return
				}
				if deserters&(1<<i) != 0 {
					rc.send(t, frameQuery, []byte("COMMIT"))
					_ = rc.nc.Close() // die without reading the commit reply
					return
				}
				if typ := rc.query(t, "COMMIT"); typ != frameDone {
					t.Errorf("COMMIT -> %q", typ)
				}
				_ = rc.nc.Close()
			}(i)
		}
		wg.Wait()
		waitConnsGone(t, srv)
		waitDrained(t, db, batchBase)
		// Every COMMIT that reached the server must have committed —
		// client death after submission does not un-commit a leader's
		// group — and every survivor saw it acknowledged.
		c := dialT(t, srv, "")
		defer c.Close()
		res, err := c.Query("SELECT k FROM kv WHERE k >= 9500")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != n {
			t.Fatalf("%d of %d group-commit rows visible", len(res.Rows), n)
		}
	})

	// No serving goroutines may outlive their connections.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroBase {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), goroBase)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
