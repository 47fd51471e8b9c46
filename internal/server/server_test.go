package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adm-project/adm/internal/monitor"
	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/storage"
)

func newServerFixture(t *testing.T, cfg Config) (*Server, *storage.DB) {
	t.Helper()
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(cat, nil, nil)
	// kv stays small (page slack for MVCC update versions); j is the
	// bulk table driving chunked results and explosive self-joins.
	eng.MustExec("CREATE TABLE kv (k INT, v STRING)")
	for i := 0; i < 8; i++ {
		eng.MustExec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'seed-%d')", i, i))
	}
	// Wide rows: a j-squared self-join is ~20MB on the wire, larger
	// than any auto-tuned kernel send buffer (the stalled-reader fault
	// needs the server's flush to actually block).
	pad := strings.Repeat("x", 56)
	eng.MustExec("CREATE TABLE j (g INT, p STRING)")
	for lo := 0; lo < 400; lo += 50 {
		var j []string
		for i := lo; i < lo+50; i++ {
			j = append(j, fmt.Sprintf("(1, 'pad-%d-%s')", i, pad))
		}
		eng.MustExec("INSERT INTO j VALUES " + strings.Join(j, ", "))
	}
	srv := New(eng, db, cfg, nil)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if n := db.Txns().Active(); n != 0 {
			t.Errorf("%d transactions leaked after server close", n)
		}
	})
	return srv, db
}

func dialT(t *testing.T, srv *Server, token string) *Client {
	t.Helper()
	c, err := Dial(srv.Addr(), token)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestServerRoundTrip(t *testing.T) {
	srv, _ := newServerFixture(t, Config{})
	c := dialT(t, srv, "")
	defer c.Close()

	res, err := c.Query("SELECT k, v FROM kv WHERE k < 3 ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || len(res.Rows) != 3 {
		t.Fatalf("got %d cols / %d rows, want 2 / 3", len(res.Cols), len(res.Rows))
	}
	if res.Rows[2][0].Int != 2 || res.Rows[2][1].Str != "seed-2" {
		t.Fatalf("row 2 = %v, want (2, seed-2)", res.Rows[2])
	}

	ins, err := c.Query("INSERT INTO kv VALUES (1000, 'net')")
	if err != nil {
		t.Fatal(err)
	}
	if ins.Affected != 1 {
		t.Fatalf("insert affected %d, want 1", ins.Affected)
	}
}

// TestServerLargeResult crosses several rowChunk boundaries so the
// chunked 'D' streaming path is exercised end to end.
func TestServerLargeResult(t *testing.T) {
	srv, _ := newServerFixture(t, Config{})
	c := dialT(t, srv, "")
	defer c.Close()

	res, err := c.Query("SELECT p FROM j")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 400 {
		t.Fatalf("got %d rows, want 400", len(res.Rows))
	}
}

func TestServerAuth(t *testing.T) {
	srv, _ := newServerFixture(t, Config{AuthToken: "sesame"})
	if _, err := Dial(srv.Addr(), "wrong"); err == nil {
		t.Fatal("bad token accepted")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != CodeAuth {
			t.Fatalf("bad token error = %v, want CodeAuth", err)
		}
	}
	c := dialT(t, srv, "sesame")
	defer c.Close()
	if _, err := c.Query("SELECT k FROM kv WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
}

// TestServerTxnOverWire drives an explicit transaction over the
// protocol and checks isolation against a second connection.
func TestServerTxnOverWire(t *testing.T) {
	srv, _ := newServerFixture(t, Config{})
	a := dialT(t, srv, "")
	defer a.Close()
	b := dialT(t, srv, "")
	defer b.Close()

	mustQ := func(c *Client, sql string) *ClientResult {
		t.Helper()
		res, err := c.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustQ(a, "BEGIN")
	mustQ(a, "INSERT INTO kv VALUES (2000, 'txn')")
	if n := len(mustQ(b, "SELECT k FROM kv WHERE k = 2000").Rows); n != 0 {
		t.Fatalf("uncommitted row visible to other connection (%d rows)", n)
	}
	mustQ(a, "COMMIT")
	if n := len(mustQ(b, "SELECT k FROM kv WHERE k = 2000").Rows); n != 1 {
		t.Fatalf("committed row not visible (%d rows)", n)
	}
}

// TestServerConflictCode checks storage.ErrWriteConflict surfaces as
// the distinct retryable CodeConflict (satellite 2).
func TestServerConflictCode(t *testing.T) {
	srv, _ := newServerFixture(t, Config{})
	a := dialT(t, srv, "")
	defer a.Close()
	b := dialT(t, srv, "")
	defer b.Close()

	for _, sql := range []string{"BEGIN", "UPDATE kv SET v = 'a' WHERE k = 7"} {
		if _, err := a.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Query("BEGIN"); err != nil {
		t.Fatal(err)
	}
	_, err := b.Query("UPDATE kv SET v = 'b' WHERE k = 7")
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeConflict {
		t.Fatalf("conflicting update error = %v, want CodeConflict", err)
	}
	if !re.Retryable() {
		t.Fatal("write conflict not marked retryable")
	}
	if _, err := a.Query("COMMIT"); err != nil {
		t.Fatal(err)
	}
	// b's transaction was auto-rolled-back; the session must be usable
	// again in autocommit, and the retry must now succeed.
	if _, err := b.Query("UPDATE kv SET v = 'b-retry' WHERE k = 7"); err != nil {
		t.Fatalf("retry after conflict: %v", err)
	}
}

func TestServerDeadlineCode(t *testing.T) {
	srv, _ := newServerFixture(t, Config{StatementTimeout: 30 * time.Millisecond, MemQuota: -1})
	c := dialT(t, srv, "")
	defer c.Close()

	// A constant-key self-join cubed: 400^3 output rows, far beyond a
	// 30ms deadline; the morsel workers abort at batch granularity.
	_, err := c.Query("SELECT a.p FROM j a JOIN j b ON a.g = b.g JOIN j c ON b.g = c.g")
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeDeadline {
		t.Fatalf("slow statement error = %v, want CodeDeadline", err)
	}
	if re.Retryable() {
		t.Fatal("deadline should not be marked retryable")
	}
	// The connection survives a per-statement deadline.
	if _, err := c.Query("SELECT k FROM kv WHERE k = 1"); err != nil {
		t.Fatalf("statement after deadline: %v", err)
	}
}

// fillTable creates table name (i INT, s STRING) holding rows rows, each
// s a width-byte string.
func fillTable(t *testing.T, srv *Server, name string, rows, width int) {
	t.Helper()
	srv.eng.MustExec("CREATE TABLE " + name + " (i INT, s STRING)")
	pad := strings.Repeat("s", width)
	for lo := 0; lo < rows; lo += 250 {
		var vals []string
		for i := lo; i < min(lo+250, rows); i++ {
			vals = append(vals, fmt.Sprintf("(%d, '%s')", i, pad))
		}
		srv.eng.MustExec("INSERT INTO " + name + " VALUES " + strings.Join(vals, ", "))
	}
}

// stallConn is a client connection whose next read, once armed, waits
// stall first; read counts the bytes it has delivered.
type stallConn struct {
	net.Conn
	stall time.Duration
	armed atomic.Bool
	read  atomic.Int64
}

func (c *stallConn) Read(p []byte) (int, error) {
	if c.armed.Swap(false) {
		time.Sleep(c.stall)
	}
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// TestStreamedScanDeadline: a deadline that fires while a streamed
// scan's rows are leaving ends the reply with CodeDeadline after the
// frames already out. Over net.Pipe a write waits for its reader, so a
// reader that stalls past the deadline holds the scan's first full
// buffer in a worker, and the next batch's deadline poll cancels the
// scan. The client drops the rows it received and reports the
// statement's error, and the connection serves the next statement.
func TestStreamedScanDeadline(t *testing.T) {
	srv, _ := newServerFixture(t, Config{StatementTimeout: 40 * time.Millisecond, MemQuota: -1})
	fillTable(t, srv, "big", 8000, 0)
	cli, conn := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- srv.serve(conn) }()
	sc := &stallConn{Conn: cli, stall: 200 * time.Millisecond}
	c := &Client{fc: newFrameConn(sc, 0), nc: sc}
	if err := c.hello(""); err != nil {
		t.Fatal(err)
	}
	sc.armed.Store(true)
	start := sc.read.Load()
	res, err := c.Query("SELECT i FROM big")
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeDeadline || res != nil {
		t.Fatalf("stalled streamed scan = %v, %v; want no rows and CodeDeadline", res, err)
	}
	if got := sc.read.Load() - start; got < 4<<10 {
		t.Fatalf("the reply was %d bytes: the deadline fired before rows left", got)
	}
	res, err = c.Query("SELECT k FROM kv WHERE k = 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("statement after a mid-stream deadline = %v, %v", res, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

func TestServerQuotaCode(t *testing.T) {
	srv, _ := newServerFixture(t, Config{MemQuota: 4 << 10})
	c := dialT(t, srv, "")
	defer c.Close()

	// 400x400 join output charges ~7MB against a 4KB budget.
	_, err := c.Query("SELECT a.p FROM j a JOIN j b ON a.g = b.g")
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeQuota {
		t.Fatalf("oversized statement error = %v, want CodeQuota", err)
	}
	if _, err := c.Query("SELECT k FROM kv WHERE k = 1"); err != nil {
		t.Fatalf("statement after quota trip: %v", err)
	}
}

// TestServerQuotaMetersWhatASinkMaterialises: the quota bounds what a
// statement holds, not what it looks at. Under one tight quota a join
// that returns its 160,000 wide rows dies with the quota code — its
// probe tail still materialises them — while the same join folded into
// a COUNT(*) — whose probe materialises nothing, so only the 400-row
// build side is charged — completes. A scan streams its rows to the
// wire and holds none: 4,000 rows that would charge ~0.8 MB complete,
// and the same rows sorted, which holds them, trip the quota. No
// statement leaves a pooled batch behind.
func TestServerQuotaMetersWhatASinkMaterialises(t *testing.T) {
	batchBase := operators.OutstandingBatches()
	srv, _ := newServerFixture(t, Config{MemQuota: 256 << 10})
	fillTable(t, srv, "w", 4000, 100)
	c := dialT(t, srv, "")
	defer c.Close()

	_, err := c.Query("SELECT * FROM j a JOIN j b ON a.g = b.g")
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeQuota {
		t.Fatalf("materialising join error = %v, want CodeQuota", err)
	}
	res, err := c.Query("SELECT a.g, COUNT(*) FROM j a JOIN j b ON a.g = b.g GROUP BY a.g")
	if err != nil {
		t.Fatalf("join-aggregate under the same quota: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Int != 400*400 {
		t.Fatalf("join-aggregate rows = %v, want one group of 160000", res.Rows)
	}
	if res, err = c.Query("SELECT i, s FROM w"); err != nil {
		t.Fatalf("streamed scan under the same quota: %v", err)
	}
	if len(res.Rows) != 4000 {
		t.Fatalf("streamed scan: %d rows, want 4000", len(res.Rows))
	}
	if _, err = c.Query("SELECT i, s FROM w ORDER BY i"); !errors.As(err, &re) || re.Code != CodeQuota {
		t.Fatalf("sorted scan error = %v, want CodeQuota", err)
	}
	if n := operators.OutstandingBatches(); n != batchBase {
		t.Fatalf("%d pooled batches outstanding, want %d", n, batchBase)
	}
}

// TestAdmissionShed saturates a 1-slot, 0-queue gate and checks the
// distinct retryable overloaded code.
func TestAdmissionShed(t *testing.T) {
	srv, _ := newServerFixture(t, Config{MaxInflight: 1, MaxQueue: -1})
	// Hold the only slot.
	if err := srv.Admission().Acquire(time.Second); err != nil {
		t.Fatal(err)
	}
	defer srv.Admission().Release()

	c := dialT(t, srv, "")
	defer c.Close()
	_, err := c.Query("SELECT k FROM kv WHERE k = 1")
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeOverloaded {
		t.Fatalf("shed statement error = %v, want CodeOverloaded", err)
	}
	if !re.Retryable() {
		t.Fatal("overload not marked retryable")
	}
	if srv.Stats().Shed == 0 {
		t.Fatal("shed counter did not move")
	}
}

func TestAdmissionQueueBounds(t *testing.T) {
	a := NewAdmission(1, 1)
	if err := a.Acquire(time.Second); err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue; it must eventually get the slot.
	done := make(chan error, 1)
	go func() {
		err := a.Acquire(5 * time.Second)
		if err == nil {
			a.Release()
		}
		done <- err
	}()
	for a.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Queue full: the next statement is shed immediately.
	if err := a.Acquire(5 * time.Second); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue acquire = %v, want ErrOverloaded", err)
	}
	a.Release()
	if err := <-done; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	if a.Inflight() != 0 || a.QueueDepth() != 0 {
		t.Fatalf("gate not drained: inflight=%d queued=%d", a.Inflight(), a.QueueDepth())
	}
}

func TestAdmissionQueueingToggle(t *testing.T) {
	a := NewAdmission(1, 8)
	if err := a.Acquire(time.Second); err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	a.SetQueueing(false)
	if err := a.Acquire(time.Second); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queueing-off acquire = %v, want immediate shed", err)
	}
	a.SetQueueing(true)
	if !a.Queueing() {
		t.Fatal("queueing not restored")
	}
}

// TestControllerLadder drives the controller with synthetic latencies
// and checks the full ladder transit: l0 -> l1 -> l2 -> back to l0.
func TestControllerLadder(t *testing.T) {
	adm := NewAdmission(4, 16)
	base := Tuning{Workers: 4, Batch: 1024, Queue: true}
	c := newControllerForTest(adm, base, 50, 0)

	// Each tick drains the window, so every tick gets a fresh feed of
	// the phase's latency; the EWMA gauge converges across ticks.
	var scratch []float64
	phase := func(ms float64, ticks int) {
		for i := 0; i < ticks; i++ {
			for j := 0; j < 50; j++ {
				c.RecordLatency(ms)
			}
			_, scratch = c.Tick(scratch)
		}
	}

	phase(10, 2)
	if got := c.Tuning(); got.Level != 0 {
		t.Fatalf("healthy load at level %d, want 0", got.Level)
	}
	// p99 over SLO: EWMA alpha 0.5 converges within a few ticks.
	phase(80, 4)
	if got := c.Tuning(); got.Level != 1 || got.Queue || got.Batch >= base.Batch {
		t.Fatalf("over-SLO tuning = %+v, want l1 with queueing off and shrunk batch", got)
	}
	if adm.Queueing() {
		t.Fatal("l1 did not close the admission queue")
	}
	// p99 over 2x SLO: drop to one worker.
	phase(400, 4)
	if got := c.Tuning(); got.Level != 2 || got.Workers != 1 {
		t.Fatalf("crisis tuning = %+v, want l2 with 1 worker", got)
	}
	// Decay: healthy latencies and an empty queue restore l0 (stepwise
	// l2 -> l1 -> l0 across ticks).
	for i := 0; i < 12 && c.Tuning().Level != 0; i++ {
		phase(5, 1)
	}
	if got := c.Tuning(); got.Level != 0 || got.Workers != 4 || got.Batch != 1024 || !got.Queue {
		t.Fatalf("recovered tuning = %+v, want base %+v", got, base)
	}
	if !adm.Queueing() {
		t.Fatal("recovery did not reopen the admission queue")
	}
}

// TestLatencySampleCoversReplyFlush: the controller's latency sample
// closes once the reply is flushed, not when execution ends, so a
// reader that stalls a large reply shows in the ladder's p99 gauge.
func TestLatencySampleCoversReplyFlush(t *testing.T) {
	srv, _ := newServerFixture(t, Config{MemQuota: 256 << 20, WriteTimeout: 10 * time.Second})
	ctl := srv.Controller()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rc := &rawClient{nc: nc, fc: newFrameConn(nc, 10*time.Second)}
	rc.send(t, frameHello, nil)
	if typ, _, err := rc.fc.ReadFrame(); err != nil || typ != frameHelloOK {
		t.Fatalf("handshake: frame %q err %v", typ, err)
	}
	// The ~20MB reply is larger than the kernel's socket buffers, so the
	// server's flush waits for this reader.
	const stall = 600 * time.Millisecond
	rc.send(t, frameQuery, []byte("SELECT a.p, b.p FROM j a JOIN j b ON a.g = b.g"))
	time.Sleep(stall)
	for {
		typ, _, err := rc.fc.ReadFrame()
		if err != nil {
			t.Fatalf("read response: %v", err)
		}
		if typ == frameDone {
			break
		}
	}
	// The sample lands when handleQuery returns, just after the last
	// frame leaves: tick until the gauge has it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ctl.Tick(nil)
		if ms, ok := ctl.Registry().Metric(MetricP99Latency, ""); ok {
			if ms < float64(stall.Milliseconds()) {
				t.Fatalf("p99 gauge %.1f ms after a reply its reader stalled for %v", ms, stall)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the statement's latency never reached the p99 gauge")
		}
		time.Sleep(time.Millisecond)
	}
}

// newControllerForTest builds a controller with a deterministic clock.
func newControllerForTest(adm *Admission, base Tuning, sloMS, cooldownMS float64) *Controller {
	c := newController(monitor.NewRegistry(), adm, base, sloMS, cooldownMS, nil)
	var now atomic.Int64 // Tick reads the clock outside the controller's lock
	c.clock = func() float64 { return float64(now.Add(10)) }
	return c
}

// TestControllerConcurrent hammers RecordLatency/Tick/Tuning from
// many goroutines; the race detector is the assertion.
func TestControllerConcurrent(t *testing.T) {
	adm := NewAdmission(4, 16)
	c := newControllerForTest(adm, Tuning{Workers: 4, Batch: 1024, Queue: true}, 50, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scratch []float64
			for i := 0; i < 500; i++ {
				c.RecordLatency(float64(g*i%200) + 1)
				if i%10 == 0 {
					_, scratch = c.Tick(scratch)
				}
				_ = c.Tuning()
			}
		}(g)
	}
	wg.Wait()
}

func TestWireCodecRoundTrip(t *testing.T) {
	row := storage.Tuple{
		storage.NullValue(),
		storage.IntValue(-42),
		storage.FloatValue(3.5),
		storage.StringValue(strings.Repeat("x", 300)),
		storage.BoolValue(true),
	}
	buf := appendRow(nil, row)
	got, rest, err := readRow(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if len(got) != len(row) {
		t.Fatalf("width %d, want %d", len(got), len(row))
	}
	for i := range row {
		if got[i].Kind != row[i].Kind || got[i].Int != row[i].Int ||
			got[i].Float != row[i].Float || got[i].Str != row[i].Str || got[i].Bool != row[i].Bool {
			t.Fatalf("value %d: got %+v want %+v", i, got[i], row[i])
		}
	}
	// Truncations at every prefix must error, not panic or misparse.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := readRow(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

// fakeReply returns a Client over net.Pipe whose server end reads one
// query frame and answers it with frames, each a type byte and its
// payload.
func fakeReply(t *testing.T, frames ...[]byte) *Client {
	cli, srv := net.Pipe()
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	go func() {
		fc := newFrameConn(srv, 0)
		if _, _, err := fc.ReadFrame(); err != nil {
			return
		}
		for _, f := range frames {
			if fc.WriteFrame(f[0], f[1:]) != nil {
				return
			}
		}
		_ = fc.Flush() // fails if the client has already hung up
	}()
	return &Client{fc: newFrameConn(cli, 0), nc: cli}
}

// frame joins a frame type and its payload pieces.
func frame(typ byte, parts ...[]byte) []byte {
	return slices.Concat(append([][]byte{{typ}}, parts...)...)
}

// TestClientBoundsWireLengths: a length that sizes an allocation comes
// off the wire, so a torn or hostile reply must fail as truncated
// before anything is allocated from it — a row width, a chunk's row
// count or a column count of maxFrame used to request ~400 MB on a
// 3-byte frame.
func TestClientBoundsWireLengths(t *testing.T) {
	huge := appendUvarint(nil, maxFrame)
	header := frame(frameResult, []byte{1, 1, 'c'}) // one column "c"
	cases := []struct {
		name   string
		frames [][]byte
	}{
		{"row width", [][]byte{header, frame(frameRows, []byte{1}, huge, []byte{wireNull, wireNull})}},
		{"chunk row count", [][]byte{header, frame(frameRows, huge, []byte{1, wireNull})}},
		{"column count", [][]byte{frame(frameResult, huge, []byte{1, 'c'})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := fakeReply(t, tc.frames...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := c.Query("SELECT c FROM t")
			runtime.ReadMemStats(&after)
			if !errors.Is(err, errTruncated) {
				t.Fatalf("Query err = %v, want errTruncated", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("decoding a %d-byte reply allocated %d bytes", len(tc.frames[len(tc.frames)-1]), got)
			}
		})
	}
}

// TestClientChecksRowCount: a completion frame whose row count is not
// the number of rows that arrived is a protocol error, not a result —
// and not a statement error either.
func TestClientChecksRowCount(t *testing.T) {
	c := fakeReply(t,
		frame(frameResult, []byte{1, 1, 'c'}),
		frame(frameRows, []byte{1}, appendRow(nil, storage.Tuple{storage.IntValue(7)})),
		frame(frameDone, []byte{0, 2})) // 0 affected, 2 rows
	res, err := c.Query("SELECT c FROM t")
	if err == nil || errors.As(err, new(*RemoteError)) {
		t.Fatalf("Query = %v, %v; want a protocol error", res, err)
	}
}

// TestFrameBuffersKeptUpToCap: a connection's result writer encodes
// every reply in one reused buffer and the client reads every frame into
// another, keeping each only up to maxKeptBuf — a 77 KiB row chunk gets
// one-off buffers on both sides — and every reply decodes intact,
// before and after the oversized one: a kept buffer never holds a frame
// still in use. Each reply streams its rows in two calls, as the morsel
// workers would, through select-list positions.
func TestFrameBuffersKeptUpToCap(t *testing.T) {
	rows := func(n int, s string) []storage.Tuple {
		out := make([]storage.Tuple, n)
		for i := range out {
			out[i] = storage.Tuple{storage.StringValue("unsent"), storage.IntValue(int64(i)), storage.StringValue(s)}
		}
		return out
	}
	replies := [][]storage.Tuple{rows(300, "small"), rows(300, strings.Repeat("x", 300)), rows(3, "again")}
	names := []string{"i", "s"}
	cli, conn := net.Pipe()
	defer cli.Close()
	defer conn.Close()
	encCaps := make(chan int, len(replies))
	go func() {
		rw := &resultWriter{fc: newFrameConn(conn, 0)}
		for _, r := range replies {
			if _, _, err := rw.fc.ReadFrame(); err != nil {
				return
			}
			half := len(r) / 2
			if rw.Rows(names, []int{1, 2}, r[:half]) != nil || rw.Rows(names, []int{1, 2}, r[half:]) != nil ||
				rw.done(&query.Result{Cols: names}) != nil {
				return
			}
			encCaps <- cap(rw.kept)
		}
	}()
	c := &Client{fc: newFrameConn(cli, 0), nc: cli}
	kept := 0
	for i, want := range replies {
		got, err := c.Query("SELECT i, s FROM t")
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if len(got.Rows) != len(want) || !slices.Equal(got.Cols, names) {
			t.Fatalf("reply %d: %d rows named %v, want %d named %v", i, len(got.Rows), got.Cols, len(want), names)
		}
		for r, row := range got.Rows {
			if len(row) != 2 || row[0].Int != int64(r) || row[1].Str != want[r][2].Str {
				t.Fatalf("reply %d row %d = %v, want %v", i, r, row, want[r][1:])
			}
		}
		if rc := cap(c.fc.rbuf); rc == 0 || rc > maxKeptBuf {
			t.Fatalf("reply %d: client keeps a %d-byte read buffer, want 1..%d", i, rc, maxKeptBuf)
		}
		ec := <-encCaps
		if ec == 0 || ec > maxKeptBuf || i > 0 && ec != kept {
			t.Fatalf("reply %d: server keeps a %d-byte encode buffer (before: %d), want it kept and <= %d", i, ec, kept, maxKeptBuf)
		}
		kept = ec
	}
}
