package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adm-project/adm/internal/monitor"
	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/session"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// ErrDeadline reports a statement cancelled by its per-statement
// deadline. The morsel workers poll the Cancel hook between batches,
// so cancellation lands at batch granularity.
var ErrDeadline = errors.New("server: statement deadline exceeded")

// errAuth reports a rejected hello.
var errAuth = errors.New("server: authentication failed")

// Config tunes one admsqld instance. Zero values take the defaults
// noted per field.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0" — ephemeral
	// port, read it back with Server.Addr).
	Addr string
	// AuthToken is the stub credential a hello frame must carry
	// verbatim. Empty accepts every hello.
	AuthToken string

	// MaxInflight bounds concurrently executing statements (default 4).
	MaxInflight int
	// MaxQueue bounds admission waiters beyond MaxInflight (default 16).
	MaxQueue int

	// StatementTimeout is both the admission-queue wait bound and the
	// per-statement execution deadline (default 2s).
	StatementTimeout time.Duration
	// WriteTimeout bounds each response flush so a stalled reader
	// fails its connection instead of wedging a serving goroutine
	// (default 5s).
	WriteTimeout time.Duration
	// MemQuota is the per-statement materialisation budget in bytes,
	// charged against batches as the morsel pipelines produce them
	// (default 64 MiB; <0 disables).
	MemQuota int64

	// Workers and BatchSize are the l0 (normal) operating point for
	// parallel SELECTs; zero takes the executor defaults.
	Workers   int
	BatchSize int

	// Adaptive enables the degradation ladder (shed -> shrink batch ->
	// drop workers). When false the server runs pinned at l0.
	Adaptive bool
	// SLOMS is the p99 latency target in milliseconds driving the
	// ladder (default 50).
	SLOMS float64
	// Tick is the monitor/controller evaluation interval (default 25ms).
	Tick time.Duration
	// CooldownMS damps consecutive ladder moves (default 4 ticks).
	CooldownMS float64
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.StatementTimeout == 0 {
		c.StatementTimeout = 2 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.MemQuota == 0 {
		c.MemQuota = 64 << 20
	}
	if c.MemQuota < 0 {
		c.MemQuota = 0 // unlimited
	}
	if c.SLOMS == 0 {
		c.SLOMS = 50
	}
	if c.Tick == 0 {
		c.Tick = 25 * time.Millisecond
	}
	if c.CooldownMS == 0 {
		c.CooldownMS = 4 * float64(c.Tick) / float64(time.Millisecond)
	}
	return c
}

// Stats is a point-in-time server counter snapshot.
type Stats struct {
	Accepted  int64 // connections accepted
	Served    int64 // statements completed successfully
	Shed      int64 // statements rejected by admission control
	Conflicts int64 // statements failed with a write conflict
	Deadlines int64 // statements cancelled by deadline
	QuotaHits int64 // statements killed by the memory budget
	Errors    int64 // other statement errors
	Level     int   // current degradation-ladder level
	Switches  int64 // ladder level changes applied
}

// Server is the admsqld network front end: it accepts TCP
// connections, speaks the frame protocol, and runs each connection's
// statements through its own session.DBSession — so a dropped client
// tears down through DBSession.Close and cannot leak a transaction.
type Server struct {
	cfg Config
	eng *query.Engine
	db  *storage.DB
	reg *monitor.Registry
	adm *Admission
	ctl *Controller
	log *trace.Log

	ln net.Listener

	// mu guards the connection table and the closed flag; never held
	// across I/O or channel operations.
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg       sync.WaitGroup
	stopTick chan struct{}

	accepted  atomic.Int64
	served    atomic.Int64
	conflicts atomic.Int64
	deadlines atomic.Int64
	quotaHits atomic.Int64
	errs      atomic.Int64
}

// New builds a server over an engine and its durable DB. log may be
// nil (a fresh trace log is created).
func New(eng *query.Engine, db *storage.DB, cfg Config, log *trace.Log) *Server {
	cfg = cfg.withDefaults()
	if log == nil {
		log = trace.New()
	}
	reg := monitor.NewRegistry()
	adm := NewAdmission(cfg.MaxInflight, cfg.MaxQueue)
	base := Tuning{Level: 0, Workers: cfg.Workers, Batch: cfg.BatchSize, Queue: cfg.MaxQueue > 0}
	return &Server{
		cfg:      cfg,
		eng:      eng,
		db:       db,
		reg:      reg,
		adm:      adm,
		ctl:      newController(reg, adm, base, cfg.SLOMS, cfg.CooldownMS, log),
		log:      log,
		conns:    make(map[net.Conn]struct{}),
		stopTick: make(chan struct{}),
	}
}

// Controller exposes the admission controller (stats, tests).
func (s *Server) Controller() *Controller { return s.ctl }

// Admission exposes the admission gate (stats, tests).
func (s *Server) Admission() *Admission { return s.adm }

// Start binds the listener and launches the accept loop (and, when
// adaptive, the controller tick loop). It returns once the server is
// accepting; Close shuts it down.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	if s.cfg.Adaptive {
		s.wg.Add(1)
		go s.tickLoop()
	}
	return nil
}

// Addr is the bound listen address (useful with an ephemeral port).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:  s.accepted.Load(),
		Served:    s.served.Load(),
		Shed:      s.adm.Shed(),
		Conflicts: s.conflicts.Load(),
		Deadlines: s.deadlines.Load(),
		QuotaHits: s.quotaHits.Load(),
		Errors:    s.errs.Load(),
		Level:     s.ctl.Tuning().Level,
		Switches:  s.ctl.Switches(),
	}
}

// Close stops accepting, force-closes every live connection, and
// waits for all serving goroutines to tear down (each one rolls back
// its session's open transaction on the way out).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	close(s.stopTick)
	for _, c := range conns {
		_ = c.Close() // unblock the reader; serve's teardown reports its own error
	}
	s.wg.Wait()
	return err
}

// track registers a live connection; false means the server is
// closing and the connection should be dropped.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	span := s.log.Span("admsqld")
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			// Listener closed (shutdown) or a transient accept fault:
			// either way the error is surfaced in the trace, and a
			// closed server exits the loop.
			span.Emit(s.ctl.clock(), trace.KindInfo, "accept: %v", err)
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		if !s.track(nc) {
			_ = nc.Close() // racing with shutdown; nothing was served
			return
		}
		s.accepted.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(nc)
			if err := s.serve(nc); err != nil {
				span.Emit(s.ctl.clock(), trace.KindInfo, "conn %s: %v", nc.RemoteAddr(), err)
			}
		}()
	}
}

func (s *Server) tickLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.Tick)
	defer t.Stop()
	var scratch []float64
	for {
		select {
		case <-s.stopTick:
			return
		case <-t.C:
			_, scratch = s.ctl.Tick(scratch)
		}
	}
}

// serve runs one connection's lifecycle: hello/auth, then a
// query loop until goodbye, EOF, or a poisoned stream. Teardown is
// unconditional — the session close (rolling back any open
// transaction) is joined into the returned error so a failed rollback
// is never silently dropped.
func (s *Server) serve(nc net.Conn) (err error) {
	fc := newFrameConn(nc, s.cfg.WriteTimeout)
	rw := &resultWriter{fc: fc}
	sess := session.NewDBSession(s.eng, s.db)
	dl := newDeadline()
	defer func() {
		err = errors.Join(err, sess.Close(), nc.Close())
	}()

	typ, payload, err := fc.ReadFrame()
	if err != nil {
		return err
	}
	if typ != frameHello {
		return errors.Join(errAuth, rw.fail(CodeBadFrame, "expected hello"))
	}
	if s.cfg.AuthToken != "" && string(payload) != s.cfg.AuthToken {
		return errors.Join(errAuth, rw.fail(CodeAuth, "bad token"))
	}
	if err := fc.WriteFrame(frameHelloOK, nil); err != nil {
		return err
	}
	if err := fc.Flush(); err != nil {
		return err
	}

	for {
		typ, payload, err := fc.ReadFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // clean disconnect between frames
			}
			return err
		}
		switch typ {
		case frameQuery:
			start := time.Now()
			if err := s.handleQuery(rw, sess, dl, string(payload)); err != nil {
				return err
			}
			yieldAfterStatement(time.Since(start)) // the reply is out: let a thread queued behind this one run
		case frameGoodbye:
			return nil
		default:
			if err := rw.fail(CodeBadFrame, fmt.Sprintf("unexpected frame %q", typ)); err != nil {
				return err
			}
		}
	}
}

// deadline is one connection's statement deadline: at is set before
// each statement starts its workers (they have all finished before the
// next one sets it), and cancel, the Cancel hook bound once per
// connection, compares it with the clock between batches.
type deadline struct {
	at     time.Time
	cancel func() error
}

func newDeadline() *deadline {
	d := &deadline{}
	d.cancel = func() error {
		if time.Now().After(d.at) {
			return ErrDeadline
		}
		return nil
	}
	return d
}

// handleQuery runs one statement: admission (bypassed inside an
// explicit transaction — the client already holds row claims, and
// stalling it would hold them longer), the controller's current
// tuning, the connection's deadline hook and a memory budget threaded
// into the morsel pipelines, and the connection's result writer as the
// row sink, so a SELECT's rows stream out as the pipeline makes them.
func (s *Server) handleQuery(rw *resultWriter, sess *session.DBSession, dl *deadline, sql string) error {
	// The latency window starts before admission so the controller
	// sees queue wait — that is exactly the latency a backlog inflates
	// and the ladder exists to cut — and closes once the reply has been
	// encoded and flushed (or failed), so a slow encode or a stalled
	// reader counts too. Shed statements are not recorded; shedding is
	// its own signal (queue-depth, shed counter).
	start := time.Now()
	if !sess.InTxn() {
		if err := s.adm.Acquire(s.cfg.StatementTimeout); err != nil {
			return rw.fail(CodeOverloaded, err.Error())
		}
		defer s.adm.Release()
	}
	defer func() { s.ctl.RecordLatency(float64(time.Since(start).Nanoseconds()) / 1e6) }()

	tun := s.ctl.Tuning()
	dl.at = time.Now().Add(s.cfg.StatementTimeout)
	opts := query.ExecOptions{
		Workers:   tun.Workers,
		BatchSize: tun.Batch,
		Cancel:    dl.cancel,
		MemBudget: operators.NewMemBudget(s.cfg.MemQuota),
		Sink:      rw,
	}

	res, err := sess.ExecOpts(sql, opts)
	if err != nil {
		code := classify(err)
		switch code {
		case CodeConflict:
			s.conflicts.Add(1)
		case CodeDeadline:
			s.deadlines.Add(1)
		case CodeQuota:
			s.quotaHits.Add(1)
		default:
			s.errs.Add(1)
		}
		return rw.fail(code, err.Error())
	}
	s.served.Add(1)
	return rw.done(res)
}

// classify maps execution errors to wire codes.
func classify(err error) byte {
	switch {
	case errors.Is(err, storage.ErrWriteConflict):
		return CodeConflict
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrDeadline):
		return CodeDeadline
	case errors.Is(err, operators.ErrMemBudget):
		return CodeQuota
	default:
		return CodeInternal
	}
}

// resultWriter is a connection's query.RowSink, bound once per
// connection: it streams each statement's reply as the rows arrive —
// the 'R' header with the first of them (or at the end), 'D' frames of
// rowChunk rows, then 'C' on success or 'E' on failure. Its calls never
// overlap: the morsel workers take turns (StreamParallelBatches), then
// the serving goroutine ends the statement.
type resultWriter struct {
	fc *frameConn
	// buf is the statement's encoding. kept is the buffer the next one
	// starts from: buf, unless it outgrew maxKeptBuf, so one huge row
	// chunk does not pin its size for the connection's life.
	buf, kept []byte
	open      bool // the statement's 'R' is out
	chunk     int  // rows encoded in buf
	rows      int  // rows the statement has encoded
	count     [binary.MaxVarintLen64]byte
}

// Rows implements query.RowSink; a nil pos sends whole tuples.
func (w *resultWriter) Rows(names []string, pos []int, rows []storage.Tuple) error {
	if !w.open {
		w.open = true
		w.buf = appendUvarint(w.buf[:0], uint64(len(names)))
		for _, c := range names {
			w.buf = appendUvarint(w.buf, uint64(len(c)))
			w.buf = append(w.buf, c...)
		}
		err := w.fc.WriteFrame(frameResult, w.buf)
		if w.buf = w.buf[:0]; err != nil {
			return err
		}
	}
	for _, t := range rows {
		if pos == nil {
			w.buf = appendRow(w.buf, t)
		} else {
			w.buf = appendUvarint(w.buf, uint64(len(pos)))
			for _, p := range pos {
				w.buf = appendValue(w.buf, t[p])
			}
		}
		w.rows++
		if w.chunk++; w.chunk == rowChunk {
			if err := w.flushChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushChunk writes the rows in buf as one 'D' frame.
func (w *resultWriter) flushChunk() error {
	k := binary.PutUvarint(w.count[:], uint64(w.chunk))
	err := w.fc.writeHeader(frameRows, k+len(w.buf))
	if err == nil {
		_, err = w.fc.w.Write(w.count[:k])
	}
	if err == nil {
		_, err = w.fc.w.Write(w.buf)
	}
	w.buf, w.chunk = w.buf[:0], 0
	return err
}

// done ends a statement that succeeded: the rows res holds (a
// statement the sink never saw, such as EXPLAIN), the last chunk, then
// 'C' with the affected and row counts.
func (w *resultWriter) done(res *query.Result) error {
	if res == nil {
		res = &query.Result{}
	}
	err := w.Rows(res.Cols, nil, res.Rows)
	if err == nil && w.chunk > 0 {
		err = w.flushChunk()
	}
	if err == nil {
		w.buf = appendUvarint(appendUvarint(w.buf[:0], uint64(res.Affected)), uint64(w.rows))
		err = w.fc.WriteFrame(frameDone, w.buf)
	}
	w.end()
	if err != nil {
		return err
	}
	return w.fc.Flush()
}

// fail ends a statement with an 'E' frame. Rows still in buf are
// dropped; the client drops those it has received.
func (w *resultWriter) fail(code byte, msg string) error {
	w.buf = append(append(w.buf[:0], code), msg...)
	err := w.fc.WriteFrame(frameError, w.buf)
	w.end()
	if err != nil {
		return err
	}
	return w.fc.Flush()
}

// end resets the writer for the next statement.
func (w *resultWriter) end() {
	if cap(w.buf) <= maxKeptBuf {
		w.kept = w.buf
	}
	w.buf, w.open, w.chunk, w.rows = w.kept[:0], false, 0, 0
}
