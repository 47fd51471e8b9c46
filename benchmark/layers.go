package main

import (
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/server"
	"github.com/adm-project/adm/internal/session"
	"github.com/adm-project/adm/internal/storage"
)

// span is one timed call into a layer's public entry point. The layers
// are measured from outside: an operation is run over the wire, then
// again through DBSession.ExecOpts, then again through query.Parse and
// Engine.ExecuteStmt, so a child span is a separate execution of the
// work its parent contains. Parent links and durations nest; the
// timestamps do not.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op_id"`
	Parent int    `json:"parent"` // -1: root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// Beside the spans it keeps, per operation, the time spent under each
// span name, from which the per-layer figures are taken.
type tracer struct {
	t0    time.Time
	spans []span
	cur   map[string]int64   // the operation in progress: ns by span name
	ops   []map[string]int64 // finished operations
	calls map[string][]int64 // every call's ns, by span name
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: map[string]int64{}, calls: map[string][]int64{}}
}

func (t *tracer) span(name string, op, parent int, f func()) (id int, ns int64) {
	start := time.Since(t.t0).Nanoseconds()
	f()
	end := time.Since(t.t0).Nanoseconds()
	id = len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: start, End: end})
	t.cur[name] += end - start
	t.calls[name] = append(t.calls[name], end-start)
	return id, end - start
}

func (t *tracer) endOp() {
	t.ops = append(t.ops, t.cur)
	t.cur = map[string]int64{}
}

// perOp is the time one operation spends under a span name, in ns: the
// lower quartile over the traced operations. What disturbs a timing
// here — a collector cycle, a stall of the host, a worker scheduled
// late — only ever adds to it, so the low side of the distribution is
// the steady estimate of what the layer itself costs, and it is the
// same side for every layer, which a median is not when join execution
// falls into two modes.
func (t *tracer) perOp(name string) float64 {
	v := make([]int64, len(t.ops))
	for i, op := range t.ops {
		v[i] = op[name]
	}
	return percentile(sortedCopy(v), 0.25)
}

// perCall is the lower quartile of one call's duration under a span
// name, in ns.
func (t *tracer) perCall(name string) float64 {
	return percentile(sortedCopy(t.calls[name]), 0.25)
}

// layerProbe collects what only the traced mode measures: heap-scan
// time before and after the measured phase, the Go heap's peak during
// it, and the traced replay afterwards.
type layerProbe struct {
	in *instance
	ds *dataset
	w  *workload

	scanTable   string
	heapScanMS0 float64
	itemIDs     *storage.BTree // item's id index; nil on write_txn

	stop     chan struct{}
	sampled  sync.WaitGroup
	heapPeak uint64

	// Accumulated over the traced replay.
	resultRows, resultBytes int64
	selects, parallel       int
	workers, replans        int
	panics                  int
	pruned, pages           int64
	rowsIn                  int64
}

func startLayerProbe(in *instance, ds *dataset, w *workload) *layerProbe {
	p := &layerProbe{in: in, ds: ds, w: w, scanTable: "item", stop: make(chan struct{})}
	if !w.items {
		p.scanTable = "acct"
	}
	if t, err := in.eng.Catalog().Table("item"); err == nil {
		p.itemIDs, _ = t.Index("id")
	}
	p.heapScanMS0 = p.heapScanMS()
	p.sampled.Add(1)
	go func() {
		defer p.sampled.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&m)
				p.heapPeak = max(p.heapPeak, m.HeapInuse)
			}
		}
	}()
	return p
}

// heapScanMS drains a raw heap scan (every version, live or dead) of
// the workload's written table five times and returns the median.
func (p *layerProbe) heapScanMS() float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		it, err := p.in.eng.Catalog().Scan(p.scanTable)
		if err != nil {
			return 0
		}
		t0 := time.Now()
		if _, err := operators.Count(it); err != nil {
			return 0
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return medianOf(ms)
}

// execOpts mirrors what server.handleQuery passes to the session.
func (p *layerProbe) execOpts(txn *storage.Txn) query.ExecOptions {
	tun := p.in.srv.Controller().Tuning()
	return query.ExecOptions{
		Workers:   tun.Workers,
		BatchSize: tun.Batch,
		Cancel:    func() error { return nil },
		MemBudget: operators.NewMemBudget(admsqldDefaults.MemQuota),
		Txn:       txn,
	}
}

var prunedRE = regexp.MustCompile(`pruned=(\d+)/(\d+)`)

// traceOp runs one operation three times — over the wire, through the
// session, through the engine — recording a span per call. Each of the
// three commits its writes, so each is acknowledged to the model. Which
// of the three goes first rotates with the operation: collector cycles
// fall into step with a fixed order and would bill one level for them.
func (p *layerProbe) traceOp(tr *tracer, cli *server.Client, sess *session.DBSession, id int, op []stmt) error {
	rt := make([]int, len(op)) // span ids of the statements' round trips
	se := make([]int, len(op)) // ... and of their session executions
	var underSession [][2]int  // (span id, statement) of spans whose parent is se[statement]

	wire := func() error {
		for j := range op {
			st := &op[j]
			var res *server.ClientResult
			var err error
			rt[j], _ = tr.span("server.roundtrip", id, -1, func() { res, err = cli.Query(st.sql) })
			if err == nil {
				err = p.ds.check(st, res, p.w.racy)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", st.sql, err)
			}
			p.resultRows += int64(len(res.Rows))
			for _, row := range res.Rows {
				for _, v := range row {
					p.resultBytes += 8
					if _, numeric := v.AsFloat(); !numeric {
						p.resultBytes += int64(len(str(v))) - 8
					}
				}
			}
		}
		return nil
	}

	throughSession := func() error {
		for j := range op {
			st := &op[j]
			var err error
			var ns int64
			se[j], ns = tr.span("session.exec", id, -1, func() { _, err = sess.ExecOpts(st.sql, p.execOpts(nil)) })
			if err != nil {
				return fmt.Errorf("session %s: %w", st.sql, err)
			}
			if st.kind == kBegin || st.kind == kCommit {
				tr.cur["session.txn_ctl"] += ns
			}
		}
		return nil
	}

	throughEngine := func() error {
		tm := p.in.db.Txns()
		var explicit *storage.Txn
		for j := range op {
			st := &op[j]
			child := func(name string, f func()) int {
				sid, _ := tr.span(name, id, -1, f)
				underSession = append(underSession, [2]int{sid, j})
				return sid
			}
			var parsed query.Stmt
			var err error
			child("query.parse", func() { parsed, err = query.Parse(st.sql) })
			if err != nil {
				return err
			}
			switch parsed := parsed.(type) {
			case *query.BeginStmt:
				explicit = tm.Begin()
			case *query.CommitStmt:
				child("storage.commit", func() { err = explicit.Commit() })
				explicit = nil
			case *query.SelectStmt:
				txn := tm.Begin()
				var res *query.Result
				var rep *query.ExecReport
				ex := child("query.execute", func() { res, rep, err = p.in.eng.ExecuteStmt(parsed, p.execOpts(txn)) })
				_ = txn.Rollback() // read-only: nothing to undo, no WAL traffic
				if err != nil {
					return fmt.Errorf("engine %s: %w", st.sql, err)
				}
				tr.span("query.plan", id, ex, func() { _, err = p.in.eng.ExecStmt(&query.ExplainStmt{Select: parsed}) })
				p.observe(parsed, res, rep)
				if st.kind == kPoint && p.itemIDs != nil {
					key := storage.IntValue(int64(st.a))
					tr.span("storage.index_lookup", id, ex, func() { _ = p.itemIDs.Search(key) })
				}
			default: // INSERT, UPDATE
				txn := explicit
				if txn == nil {
					txn = tm.Begin()
				}
				child("query.execute", func() { _, _, err = p.in.eng.ExecuteStmt(parsed, p.execOpts(txn)) })
				if err == nil && explicit == nil {
					child("storage.commit", func() { err = txn.Commit() })
				}
				switch st.kind { // an UPDATE scans its table; an INSERT counts as one row
				case kUpdateItem:
					p.rowsIn += int64(p.tableRows("item"))
				case kUpdateAcct:
					p.rowsIn += int64(p.tableRows("acct"))
				default:
					p.rowsIn++
				}
			}
			if err != nil {
				return fmt.Errorf("engine %s: %w", st.sql, err)
			}
			child("storage.snapshot", func() { _ = tm.Begin().Rollback() })
		}
		return nil
	}

	levels := []func() error{wire, throughSession, throughEngine}
	for k := range levels {
		if err := levels[(id+k)%len(levels)](); err != nil {
			return err
		}
		p.ds.ack(op)
	}
	for j := range op {
		tr.spans[se[j]].Parent = rt[j]
	}
	for _, c := range underSession {
		tr.spans[c[0]].Parent = se[c[1]]
	}
	tr.endOp()
	return nil
}

// tableRows is the number of live rows a sequential scan of a table
// visits.
func (p *layerProbe) tableRows(table string) int {
	switch strings.ToLower(table) {
	case "item":
		return p.ds.items
	case "grp":
		return p.ds.groups
	case "acct":
		return p.ds.accts
	}
	return int(p.ds.ordCount.Load())
}

// observe folds one executed SELECT's report and plan into the probe.
func (p *layerProbe) observe(sel *query.SelectStmt, res *query.Result, rep *query.ExecReport) {
	p.selects++
	if rep.Parallel {
		p.parallel++
	}
	p.workers += rep.Workers
	p.replans += rep.Adaptive.Replans
	if rep.PanicContained {
		p.panics++
	}
	for _, m := range prunedRE.FindAllStringSubmatch(res.Plan, -1) {
		n, _ := strconv.ParseInt(m[1], 10, 64)
		of, _ := strconv.ParseInt(m[2], 10, 64)
		p.pruned += n
		p.pages += of
	}
	// Rows consumed: a sequential scan reads its whole table, an index
	// scan the rows it returns.
	refs := []query.TableRef{sel.From}
	for _, j := range sel.Joins {
		refs = append(refs, j.Table)
	}
	for _, ref := range refs {
		if strings.Contains(res.Plan, "IndexScan("+ref.Binding()+".") {
			p.rowsIn += int64(max(1, len(res.Rows)))
		} else {
			p.rowsIn += int64(p.tableRows(ref.Name))
		}
	}
}

// traceSample sizes the traced phase: 5% of the measured operations and
// at least 200, but no more than fit in about `seconds` given that each
// is executed four times (plain, wire, session, engine) — on mixed_rw,
// whose operation takes tens of milliseconds, that is a few dozen.
func traceSample(seconds float64, lat []int64) int {
	const share, atLeast = 0.05, 200
	var sum int64
	for _, ns := range lat {
		sum += ns
	}
	mean := float64(sum) / float64(max(1, len(lat))) / 1e9
	fit := int(seconds / (4 * max(mean, 1e-6)))
	return max(30, min(fit, max(atLeast, int(share*float64(len(lat))))))
}

// finish ends the measured-phase sampling, runs the traced phase and
// emits every per-layer metric.
func (p *layerProbe) finish(rep *report, cli *server.Client, cfg config, m *measured) {
	before, after, runs := m.before, m.after, m.runs
	close(p.stop)
	p.sampled.Wait()
	heapScanMS1 := p.heapScanMS()

	var lat []int64
	var kindLat [numKinds][]int64
	attempted, failed := 0, 0
	for _, r := range runs {
		lat = append(lat, r.lat...)
		attempted += r.attempted
		failed += r.failed
		for k := range kindLat {
			kindLat[k] = append(kindLat[k], r.kindLat[k]...)
		}
	}
	ops := float64(len(lat))

	// Traced phase: one client, a fresh seeded sample, once plain and
	// once with every deeper entry point.
	n := traceSample(cfg.seconds, lat)
	sample := p.w.stream(p.ds, cfg.seed^0x7ace, 0, 1, n, 1_000_000_000)
	plain := drive(cli, p.ds, p.w, sample, time.Now().Add(time.Hour), false)
	rep.Attempted += plain.attempted
	rep.Failed += plain.failed
	if plain.err != nil {
		rep.problem("traced phase (plain): %v", plain.err)
	}

	tr := newTracer()
	sess := session.NewDBSession(p.in.eng, p.in.db)
	defer sess.Close()
	for i := 0; i < n; i++ {
		rep.Attempted++
		if err := p.traceOp(tr, cli, sess, i, sample[i*p.w.perOp:(i+1)*p.w.perOp]); err != nil {
			rep.Failed++
			rep.problem("traced phase: %v", err)
			break
		}
	}
	rep.Spans = tr.spans
	tn := float64(max(1, len(tr.ops)))
	perOp := tr.perOp
	pos := func(v float64) float64 { return max(0, v) }

	roundtrip, exec := perOp("server.roundtrip"), perOp("session.exec")
	parse, plan, execute := perOp("query.parse"), perOp("query.plan"), perOp("query.execute")
	run := pos(execute - plan)
	d := func(a, b uint64) float64 { return float64(b - a) }
	di := func(a, b int64) float64 { return float64(b - a) }

	rep.add("server.roundtrip_ms", "ms", roundtrip*msPerNS)
	rep.add("server.self_ms", "ms", pos(roundtrip-exec)*msPerNS)
	rep.add("server.rows_per_op", "row/op", float64(p.resultRows)/tn)
	rep.add("server.result_kb_per_op", "KiB/op", float64(p.resultBytes)/1024/tn)
	rep.add("server.served", "count", di(before.srv.Served, after.srv.Served))
	rep.add("server.shed", "count", di(before.srv.Shed, after.srv.Shed))
	rep.add("server.conflicts", "count", di(before.srv.Conflicts, after.srv.Conflicts))
	rep.add("server.deadlines", "count", di(before.srv.Deadlines, after.srv.Deadlines))
	rep.add("server.quota_hits", "count", di(before.srv.QuotaHits, after.srv.QuotaHits))
	rep.add("server.errors", "count", di(before.srv.Errors, after.srv.Errors))
	rep.add("server.ladder_switches", "count", di(before.srv.Switches, after.srv.Switches))
	rep.add("server.ladder_level_end", "level", float64(after.srv.Level))
	rep.add("server.admitted", "count", di(before.admitted, after.admitted))

	rep.add("session.exec_ms", "ms", exec*msPerNS)
	rep.add("session.self_ms", "ms", pos(exec-parse-execute)*msPerNS)
	rep.add("session.txn_ctl_ms", "ms", perOp("session.txn_ctl")*msPerNS)

	sel := float64(max(1, p.selects))
	rep.add("query.parse_us", "us", parse/1e3)
	rep.add("query.plan_us", "us", plan/1e3)
	rep.add("query.execute_ms", "ms", execute*msPerNS)
	rep.add("query.parallel_share", "ratio", float64(p.parallel)/sel)
	rep.add("query.replans_per_op", "1/op", float64(p.replans)/tn)
	rep.add("query.panic_contained", "count", float64(p.panics))
	rep.add("query.pages_scanned_per_op", "page/op", float64(p.pages-p.pruned)/tn)
	rep.add("query.pages_pruned_ratio", "ratio", float64(p.pruned)/float64(max(1, p.pages)))

	rep.add("operators.run_ms", "ms", run*msPerNS)
	rep.add("operators.rows_in_per_s", "row/s", float64(p.rowsIn)/tn/(run/1e9))
	rep.add("operators.workers", "count", float64(p.workers)/sel)

	gets := d(before.db.Buffer.Hits+before.db.Buffer.Misses, after.db.Buffer.Hits+after.db.Buffer.Misses)
	rep.add("storage.buffer_gets_per_op", "1/op", gets/ops)
	rep.add("storage.buffer_hit_rate", "ratio", d(before.db.Buffer.Hits, after.db.Buffer.Hits)/max(1, gets))
	rep.add("storage.buffer_evictions_per_op", "1/op", d(before.db.Buffer.Evictions, after.db.Buffer.Evictions)/ops)
	rep.add("storage.heap_scan_ms_start", "ms", p.heapScanMS0)
	rep.add("storage.heap_scan_ms_end", "ms", heapScanMS1)
	rep.add("storage.index_lookup_us", "us", tr.perCall("storage.index_lookup")/1e3)
	rep.add("storage.snapshot_us", "us", tr.perCall("storage.snapshot")/1e3)

	walBytes := di(before.db.WALBytes, after.db.WALBytes)
	rep.add("storage.wal_bytes_per_op", "B/op", walBytes/ops)
	rep.add("storage.wal_appends_per_op", "1/op", d(before.db.WALAppends, after.db.WALAppends)/ops)
	rep.add("storage.wal_syncs_per_op", "1/op", d(before.db.WALSyncs, after.db.WALSyncs)/ops)
	rep.add("storage.wal_bytes_per_user_byte", "ratio", walBytes/float64(max(1, m.written)))
	rep.add("storage.group_commit_fanin", "ratio", d(before.txn.Batched, after.txn.Batched)/max(1, d(before.txn.Groups, after.txn.Groups)))
	rep.add("storage.txn_aborts", "count", d(before.txn.Aborts, after.txn.Aborts))
	rep.add("storage.commit_ms", "ms", perOp("storage.commit")*msPerNS)

	walEnd, _ := p.in.wal.Size()
	dataEnd, _ := p.in.data.Size()
	rep.add("storage.wal_bytes_end", "B", float64(walEnd))
	rep.add("storage.data_bytes_end", "B", float64(dataEnd))
	rep.add("storage.bytes_per_user_byte", "ratio",
		float64(walEnd+dataEnd)/float64(int64(p.in.loadedBytes)+p.ds.writtenBytes.Load()))
	rep.add("storage.setup_rows_per_s", "row/s", float64(p.in.loadedRows)/m.setupS)

	sorted := sortedCopy(lat)
	half := func(lo, hi float64) float64 {
		var part []int64
		for _, r := range runs {
			n := float64(len(r.lat))
			part = append(part, r.lat[int(lo*n):int(hi*n)]...)
		}
		return percentile(sortedCopy(part), 0.5) * msPerNS
	}
	rep.add("bench.samples", "count", ops)
	rep.add("bench.warmup_ops", "count", float64(m.warmOps))
	rep.add("bench.measured_s", "s", m.wall.Seconds())
	rep.add("bench.error_rate", "ratio", float64(failed)/float64(max(1, attempted)))
	rep.add("bench.p50_ms", "ms", percentile(sorted, 0.5)*msPerNS)
	rep.add("bench.p99_ms", "ms", percentile(sorted, 0.99)*msPerNS)
	rep.add("bench.first_half_p50_ms", "ms", half(0, 0.5))
	rep.add("bench.second_half_p50_ms", "ms", half(0.5, 1))
	rep.add("bench.heap_peak_mb", "MiB", float64(p.heapPeak)/(1<<20))
	rep.add("bench.gc_cpu_fraction", "ratio", after.mem.GCCPUFraction)
	rep.add("bench.trace_overhead_ratio", "ratio", percentile(sortedCopy(plain.lat), 0.25)/max(1, roundtrip))
	rep.add("bench.reconcile_ratio", "ratio", (pos(roundtrip-exec)+pos(exec-parse-execute)+parse+plan+run)/max(1, roundtrip))
	for _, k := range []struct {
		name string
		kind stmtKind
	}{{"point", kPoint}, {"range", kRange}, {"join", kJoin}, {"topk", kTopK}, {"update", kUpdateItem}} {
		rep.add("bench.mixed."+k.name+"_p50_ms", "ms", percentile(sortedCopy(kindLat[k.kind]), 0.5)*msPerNS)
	}
}
