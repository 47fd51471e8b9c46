package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
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
// that returns its 160,000 wide rows dies with the quota code, while
// the same join folded into a COUNT(*) — whose probe materialises
// nothing, so only the 400-row build side is charged — completes; and
// neither leaves a pooled batch behind.
func TestServerQuotaMetersWhatASinkMaterialises(t *testing.T) {
	batchBase := operators.OutstandingBatches()
	srv, _ := newServerFixture(t, Config{MemQuota: 256 << 10})
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

// TestClientBoundsWireLengths: a length that sizes an allocation comes
// off the wire, so a torn or hostile reply must fail as truncated
// before anything is allocated from it — a row width (or a column
// count) of maxFrame used to request ~400 MB on a 3-byte frame.
func TestClientBoundsWireLengths(t *testing.T) {
	huge := appendUvarint(nil, maxFrame)
	header := []byte{1, 1, 'c', 0, 1} // one column "c", 0 affected, 1 row
	cases := []struct {
		name   string
		frames [][]byte // reply frames: a result header, then row chunks
	}{
		{"row width", [][]byte{header, append(append([]byte{1}, huge...), wireNull, wireNull)}},
		{"column count", [][]byte{append(append([]byte(nil), huge...), 1, 'c')}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer cli.Close()
			defer srv.Close()
			go func() {
				fc := newFrameConn(srv, 0)
				if _, _, err := fc.ReadFrame(); err != nil {
					return
				}
				for i, f := range tc.frames {
					typ := byte(frameRows)
					if i == 0 {
						typ = frameResult
					}
					if fc.WriteFrame(typ, f) != nil {
						return
					}
				}
				_ = fc.Flush() // fails if the client has already hung up
			}()
			c := &Client{fc: newFrameConn(cli, 0), nc: cli}
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

// TestFrameBuffersKeptUpToCap: a connection encodes every reply in one
// reused buffer and reads every frame into another, keeping each only
// up to maxKeptBuf — a 77 KiB row chunk gets one-off buffers on both
// sides — and every reply decodes intact, before and after the
// oversized one: a kept buffer never holds a frame still in use.
func TestFrameBuffersKeptUpToCap(t *testing.T) {
	rows := func(n int, s string) []storage.Tuple {
		out := make([]storage.Tuple, n)
		for i := range out {
			out[i] = storage.Tuple{storage.IntValue(int64(i)), storage.StringValue(s)}
		}
		return out
	}
	results := []*query.Result{
		{Cols: []string{"i", "s"}, Rows: rows(300, "small")},
		{Cols: []string{"i", "s"}, Rows: rows(300, strings.Repeat("x", 300))},
		{Cols: []string{"i", "s"}, Rows: rows(3, "again")},
	}
	cli, conn := net.Pipe()
	defer cli.Close()
	defer conn.Close()
	encCaps := make(chan int, len(results))
	go func() {
		fc := newFrameConn(conn, 0)
		for _, res := range results {
			if _, _, err := fc.ReadFrame(); err != nil {
				return
			}
			if (&Server{}).writeResult(fc, res) != nil {
				return
			}
			encCaps <- cap(fc.enc)
		}
	}()
	c := &Client{fc: newFrameConn(cli, 0), nc: cli}
	kept := 0
	for i, want := range results {
		got, err := c.Query("SELECT i, s FROM t")
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("reply %d: %d rows, want %d", i, len(got.Rows), len(want.Rows))
		}
		for r, row := range got.Rows {
			if row[0].Int != int64(r) || row[1].Str != want.Rows[r][1].Str {
				t.Fatalf("reply %d row %d = %v, want %v", i, r, row, want.Rows[r])
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
