package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/adm-project/adm/internal/server"
)

// config is one run's arguments.
type config struct {
	seed    int64
	seconds float64
	items   int  // rows in item; 12000 is D12k
	trace   bool // false: end-to-end metrics; true: per-layer metrics and spans
}

// metric is one named, united value.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// report is one workload's outcome in one mode.
type report struct {
	Workload  string
	Trace     bool
	Attempted int
	Failed    int
	Correct   bool
	Problems  []string // what made Correct false
	Metrics   []metric
	Notes     []metric // context for a reader; not part of the contract
	Spans     []span
}

func (r *report) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics = append(r.Metrics, metric{name, unit, v})
}

func (r *report) note(name, unit string, v float64) {
	r.Notes = append(r.Notes, metric{name, unit, v})
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Every run measures `instances` freshly set-up servers, one after the
// other, and reports set-up time as the median and the rest as totals
// or means over them. A server's speed depends on where its pages and
// buffer frames happen to land in memory: on the reference box the same
// statement stream runs up to 30% faster or slower from one set-up to
// the next and then stays there for the server's life, so one server
// per run would make every timing a draw from that lottery.
const (
	instances   = 3
	tailBlocks  = 3
	warmupShare = 0.10
)

// run executes one workload once. Each instance gets set-up, warm-up,
// a measured phase of opsPerSec x seconds / instances operations,
// verification over the wire, shutdown and the durability check; the
// traced mode uses one instance and adds the traced phase.
func run(w *workload, cfg config) (*report, error) {
	rep := &report{Workload: w.name, Trace: cfg.trace}
	ds := newDataset(cfg.seed, cfg.items)

	n := instances
	if cfg.trace {
		n = 1
	}
	perClient := max(10, int(w.opsPerSec*cfg.seconds)/instances/clients)
	warm := max(1, int(float64(perClient)*warmupShare))
	part := (warm + perClient) * w.perOp // statements per client and instance
	streams := make([][]stmt, clients)
	for c := range streams {
		streams[c] = w.stream(ds, cfg.seed*1_000_003+int64(c)+1, c, clients, n*(warm+perClient), 0)
	}
	// The cut-off only matters on a machine far slower than the
	// reference box, where it keeps a run inside the driver's limit.
	limit := max(10*time.Second, time.Duration(cfg.seconds*float64(time.Second)))

	var setups, p50s, p99s []float64
	var ops, wall, alloc float64
	for i := 0; i < n; i++ {
		parts := make([][]stmt, clients)
		for c := range parts {
			parts[c] = streams[c][i*part : (i+1)*part]
		}
		m, err := measure(w, cfg, ds, rep, parts, warm*w.perOp, limit)
		if err != nil {
			return nil, err
		}
		var lat []int64
		for _, r := range m.runs {
			lat = append(lat, r.lat...)
		}
		sorted := sortedCopy(lat)
		setups = append(setups, m.setupS)
		p50s = append(p50s, percentile(sorted, 0.50)*msPerNS)
		p99s = append(p99s, blockP99(m.runs)*msPerNS)
		ops += float64(len(lat))
		wall += m.wall.Seconds()
		alloc += float64(m.after.mem.TotalAlloc - m.before.mem.TotalAlloc)
		if len(lat) < clients*perClient {
			rep.problem("instance %d: %d of %d operations completed correctly", i, len(lat), clients*perClient)
		}
	}
	if !cfg.trace {
		// A set-up that takes milliseconds (write_txn loads 512 rows) is
		// timed too coarsely by three samples: repeat it while it is cheap.
		for spent := meanOf(setups) * instances; spent < 1 && len(setups) < 15; {
			t0 := time.Now()
			in, err := boot(ds, w.items)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			spent += setups[len(setups)-1]
			if err := in.srv.Close(); err != nil {
				return nil, err
			}
		}
		rep.add("setup_s", "s", medianOf(setups))
		rep.add("ops_per_s", "op/s", ops/wall)
		rep.add("p50_ms", "ms", meanOf(p50s))
		rep.add("p99_ms", "ms", meanOf(p99s))
		rep.add("alloc_kb_per_op", "KiB/op", alloc/1024/ops)
		rep.note("samples", "count", ops)
		rep.note("measured_s", "s", wall)
		for i := range p50s {
			rep.note("instance_setup_s", "s", setups[i])
			rep.note("instance_p50_ms", "ms", p50s[i])
			rep.note("instance_p99_ms", "ms", p99s[i])
		}
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	return rep, nil
}

// blockP99 is one server's tail latency: its measured phase is cut into
// tailBlocks consecutive blocks, and the median of the blocks' 99th
// percentiles is taken, so that a stall of the host — which is a tail
// event by definition, and on the reference box the main source of
// them — moves one block and not the figure.
func blockP99(runs []*clientRun) float64 {
	var p99s []float64
	for b := 0; b < tailBlocks; b++ {
		var blk []int64
		for _, r := range runs {
			n := len(r.lat)
			blk = append(blk, r.lat[b*n/tailBlocks:(b+1)*n/tailBlocks]...)
		}
		p99s = append(p99s, percentile(sortedCopy(blk), 0.99))
	}
	return medianOf(p99s)
}

// measure runs one instance through its whole life.
func measure(w *workload, cfg config, ds *dataset, rep *report, parts [][]stmt, warmStmts int, limit time.Duration) (*measured, error) {
	ds.resetModel()
	t0 := time.Now()
	in, err := boot(ds, w.items)
	if err != nil {
		return nil, err
	}
	m := &measured{setupS: time.Since(t0).Seconds(), warmOps: warmStmts / w.perOp * clients}
	closed := false
	defer func() {
		if !closed {
			_ = in.srv.Close() // error path only; the success path checks Close
		}
	}()

	cls := make([]*server.Client, clients)
	for c := range cls {
		cl, err := server.Dial(in.srv.Addr(), "")
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		cls[c] = cl
	}
	warmParts := make([][]stmt, clients)
	restParts := make([][]stmt, clients)
	for c := range parts {
		warmParts[c], restParts[c] = parts[c][:warmStmts], parts[c][warmStmts:]
	}
	warmRuns, _ := phase(cls, ds, w, warmParts, limit, false)
	// Start every measured phase from a collected heap: what set-up
	// left behind would otherwise decide when the first cycles fall.
	runtime.GC()

	var lay *layerProbe
	if cfg.trace {
		lay = startLayerProbe(in, ds, w)
	}
	m.before, m.written = in.snapshot(), -ds.writtenBytes.Load()
	m.runs, m.wall = phase(cls, ds, w, restParts, limit, cfg.trace && w.racy)
	m.after = in.snapshot()
	m.written += ds.writtenBytes.Load()
	for _, r := range append(warmRuns, m.runs...) {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		if r.err != nil {
			rep.problem("%v", r.err)
		}
	}
	if cfg.trace {
		lay.finish(rep, cls[0], cfg, m)
	}

	// Verification over the wire, then shutdown, then what survives it.
	if err := ds.verify(w, wireExec(cls[0])); err != nil {
		rep.problem("verify: %v", err)
	}
	closed = true
	if err := in.srv.Close(); err != nil {
		return nil, err
	}
	if w.writes || cfg.trace {
		rec, err := in.recoverCopy(ds, w, cfg.trace)
		if err != nil {
			rep.problem("durability: %v", err)
		}
		if cfg.trace {
			rep.add("storage.recovery_ms", "ms", rec.ms)
			rep.add("storage.recovery_records_scanned", "count", rec.records)
		}
	}
	return m, nil
}

// measured is what the measured phase produced, for the layer probe.
type measured struct {
	before, after counters
	runs          []*clientRun
	wall          time.Duration
	written       int64 // logical bytes the phase's acknowledged writes carried
	warmOps       int
	setupS        float64
}
