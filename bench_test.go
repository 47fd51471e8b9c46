// Benchmarks regenerating the paper's evaluation surface: one bench
// per table/figure (see DESIGN.md §3 for the mapping) plus the
// ablations of DESIGN.md §4 and substrate micro-benchmarks. Run:
//
//	go test -bench=. -benchmem
package adm

import (
	"fmt"
	"testing"

	"github.com/adm-project/adm/internal/adapt"
	"github.com/adm-project/adm/internal/adl"
	"github.com/adm-project/adm/internal/component"
	"github.com/adm-project/adm/internal/constraint"
	"github.com/adm-project/adm/internal/device"
	"github.com/adm-project/adm/internal/experiments"
	"github.com/adm-project/adm/internal/goos"
	"github.com/adm-project/adm/internal/kendra"
	"github.com/adm-project/adm/internal/machine"
	"github.com/adm-project/adm/internal/monitor"
	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/patia"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// ---------------------------------------------------------------------------
// Table 1: RPC cycles per kernel path. The simulated cycle count is
// reported as a custom metric next to the wall-time cost of running
// the path model.

func benchKernelPath(b *testing.B, path goos.KernelPath, paperCycles float64) {
	b.Helper()
	m := machine.New(machine.DefaultCostModel(), 16)
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := path.RPC(m)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles/rpc")
	b.ReportMetric(paperCycles, "paper-cycles/rpc")
}

func BenchmarkTable1_BSD(b *testing.B)  { benchKernelPath(b, goos.DefaultBSD(), 55000) }
func BenchmarkTable1_Mach(b *testing.B) { benchKernelPath(b, goos.DefaultMach(), 3000) }
func BenchmarkTable1_L4(b *testing.B)   { benchKernelPath(b, goos.DefaultL4(), 665) }

func BenchmarkTable1_Go(b *testing.B) {
	g, err := goos.NewGoPath()
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := g.RPC(nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles/rpc")
	b.ReportMetric(73, "paper-cycles/rpc")
}

// §5.1 memory claim: bytes of protection metadata per interface.
func BenchmarkMemoryPerInterface(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		sys := goos.NewSystem(512)
		text := machine.NewSeq().ALU("logic", 16).Build()
		if _, err := sys.LoadType("svc", text); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			inst, err := sys.NewInstance(fmt.Sprintf("svc-%03d", j), "svc", 256)
			if err != nil {
				b.Fatal(err)
			}
			sys.ORB().Register(inst, 2, nil)
		}
		ratio = sys.Footprint().Ratio()
	}
	b.ReportMetric(32, "bytes/interface")
	b.ReportMetric(ratio, "pagebased/go-ratio")
}

// ---------------------------------------------------------------------------
// Figure 1: the full adaptation loop (monitors → session → switch).

func BenchmarkFigure1_AdaptationLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1Loop(); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 5: ADL diff + transactional application of the docked →
// wireless switchover.
func BenchmarkFigure5_Switchover(b *testing.B) {
	model := adl.MustParse(adl.Figure4)
	factory := adapt.TypeFactory(model, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		asm := component.NewAssembly(nil, nil)
		if err := adapt.Instantiate(asm, model, "docked", factory); err != nil {
			b.Fatal(err)
		}
		am := adapt.NewManager(asm, nil, nil)
		plan, err := model.Diff("docked", "wireless")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := am.Apply(plan, factory); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 6: one ORB-mediated invocation (the 73-cycle path).
func BenchmarkFigure6_ORBInvoke(b *testing.B) {
	g, err := goos.NewGoPath()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.RPC(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 3 / Scenario 1: BEST+NEAREST evaluation against live vitals.
func BenchmarkFigure3_Scenario1_InterQuery(b *testing.B) {
	tb := device.NewTestbed(1)
	ctx := &constraint.Context{Env: tb.Reg}
	best := constraint.MustParse("Select BEST (PDA, Laptop)")
	near := constraint.MustParse("Select NEAREST (PDA, Laptop)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := best.Eval(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := near.Eval(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// Scenario 2: full undock-mid-stream runs.
func BenchmarkScenario2(b *testing.B) {
	for _, mode := range []struct {
		name     string
		adaptive bool
	}{{"Static", false}, {"Adaptive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var completion float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunScenario2(mode.adaptive)
				if err != nil {
					b.Fatal(err)
				}
				completion = r.CompletionMS
			}
			b.ReportMetric(completion, "sim-ms/stream")
		})
	}
}

// Scenario 3: mid-query re-optimisation vs static execution.
func BenchmarkScenario3(b *testing.B) {
	var peak int
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunScenario3()
		if err != nil {
			b.Fatal(err)
		}
		peak = r.PeakHashRows
	}
	b.ReportMetric(float64(peak), "peak-hash-rows")
}

// ---------------------------------------------------------------------------
// Table 2: Patia flash crowd and the banded video rule.

func BenchmarkTable2_FlashCrowd(b *testing.B) {
	for _, mode := range []struct {
		name     string
		adaptive bool
	}{{"Static", false}, {"Adaptive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				r, err := patia.RunFlashCrowd(patia.DefaultCrowdConfig(mode.adaptive))
				if err != nil {
					b.Fatal(err)
				}
				lat = r.MeanLatencyMS
			}
			b.ReportMetric(lat, "sim-mean-latency-ms")
		})
	}
}

func BenchmarkTable2_VideoRule(b *testing.B) {
	reg := monitor.NewRegistry()
	sys := patia.NewSystem([]string{"node1", "node2", "node3"}, reg, trace.New(), nil)
	video := &patia.Atom{ID: 153, Name: "video.ram", Type: "video", Bytes: 4_000_000,
		Constraints: patia.Table2VideoRules(),
		Versions:    map[string]int{"videohalf": 2_000_000, "videosmall": 500_000}}
	sys.PublishVitals(0)
	reg.Publish(monitor.Sample{Key: monitor.Key{Metric: monitor.MetricBandwidth}, Value: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := sys.SelectVersion(video, "node1")
		if v != "videohalf" {
			b.Fatalf("version = %s", v)
		}
	}
}

// ---------------------------------------------------------------------------
// §2 adaptive operators.

func benchTimedJoin(b *testing.B, run func(l, r *operators.TimedSource) operators.RunResult) {
	b.Helper()
	var first float64
	for i := 0; i < b.N; i++ {
		var l, r []storage.Tuple
		for j := 0; j < 400; j++ {
			l = append(l, storage.Tuple{storage.IntValue(int64(j % 20))})
			r = append(r, storage.Tuple{storage.IntValue(int64(j % 20))})
		}
		ls := operators.NewTimedSource("L", l, operators.ArrivalPattern{PerTupleMS: 4, StallEvery: 100, StallMS: 800})
		rs := operators.NewTimedSource("R", r, operators.ArrivalPattern{PerTupleMS: 1})
		res := run(ls, rs)
		first = res.FirstOutputMS
	}
	b.ReportMetric(first, "sim-ms-to-first-tuple")
}

func BenchmarkAdaptiveJoins_Blocking(b *testing.B) {
	benchTimedJoin(b, func(l, r *operators.TimedSource) operators.RunResult {
		return operators.RunBlockingHashJoin(l, r, 0, 0)
	})
}

func BenchmarkAdaptiveJoins_Symmetric(b *testing.B) {
	benchTimedJoin(b, func(l, r *operators.TimedSource) operators.RunResult {
		return operators.RunSymmetricHashJoin(l, r, 0, 0)
	})
}

func BenchmarkAdaptiveJoins_XJoin(b *testing.B) {
	benchTimedJoin(b, func(l, r *operators.TimedSource) operators.RunResult {
		return operators.RunXJoin(l, r, 0, 0, operators.XJoinConfig{
			MemTuplesPerSide: 50, ReactiveBatch: 16, ReactiveStepMS: 2,
		})
	})
}

func BenchmarkRippleJoin(b *testing.B) {
	var l, r []storage.Tuple
	for j := 0; j < 300; j++ {
		l = append(l, storage.Tuple{storage.IntValue(int64(j % 25)), storage.FloatValue(float64(j))})
		r = append(r, storage.Tuple{storage.IntValue(int64(j % 25))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls := operators.NewTimedSource("L", l, operators.ArrivalPattern{PerTupleMS: 1})
		rs := operators.NewTimedSource("R", r, operators.ArrivalPattern{PerTupleMS: 1})
		operators.RunRippleJoin(ls, rs, 0, 0, 1, 25)
	}
}

// Kendra: codec switching under the drop trace.
func BenchmarkKendra_CodecSwitch(b *testing.B) {
	tr := kendra.DropTrace()
	var quality float64
	for i := 0; i < b.N; i++ {
		res, err := kendra.Stream(kendra.DefaultConfig(true), tr)
		if err != nil {
			b.Fatal(err)
		}
		quality = res.MeanQuality
	}
	b.ReportMetric(quality, "mean-quality")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4).

func BenchmarkAblation_TrapVsScan(b *testing.B) {
	g, err := goos.NewGoPath()
	if err != nil {
		b.Fatal(err)
	}
	sys := g.System()
	caller, _ := sys.Instance("caller")
	callee, _ := sys.Instance("callee")
	id := sys.ORB().Register(callee, 4, nil)
	b.Run("SISR", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			res, err := g.RPC(nil)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		b.ReportMetric(float64(cycles), "sim-cycles/rpc")
	})
	b.Run("Trapped", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			res, err := sys.ORB().InvokeTrapped(caller, id)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		b.ReportMetric(float64(cycles), "sim-cycles/rpc")
	})
}

func BenchmarkAblation_Grain(b *testing.B) {
	// Fine: 3 chained components; Mono: one component, same work.
	work := func(x int) int { return x*31 + 7 }
	build := func(stages int) *component.Assembly {
		a := component.NewAssembly(nil, nil)
		for i := 0; i < stages; i++ {
			name := fmt.Sprintf("s%d", i)
			c := component.New(name)
			if i < stages-1 {
				c.Require("next", "svc")
			}
			idx := i
			c.Provide("in", "svc", func(req component.Request) (any, error) {
				v := work(req.Payload.(int))
				if idx == stages-1 {
					return v, nil
				}
				return a.Call(name, "next", component.Request{Payload: v})
			})
			if err := a.Add(c); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < stages-1; i++ {
			if err := a.Bind(fmt.Sprintf("s%d", i), "next", fmt.Sprintf("s%d", i+1), "in"); err != nil {
				b.Fatal(err)
			}
		}
		d := component.New("driver").Require("out", "svc")
		_ = a.Add(d)
		_ = a.Bind("driver", "out", "s0", "in")
		if err := a.StartAll(); err != nil {
			b.Fatal(err)
		}
		return a
	}
	b.Run("Fine5", func(b *testing.B) {
		a := build(5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Call("driver", "out", component.Request{Payload: i}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Mono", func(b *testing.B) {
		a := component.NewAssembly(nil, nil)
		m := component.New("m").Provide("in", "svc", func(req component.Request) (any, error) {
			v := req.Payload.(int)
			for j := 0; j < 5; j++ {
				v = work(v)
			}
			return v, nil
		})
		_ = a.Add(m)
		d := component.New("driver").Require("out", "svc")
		_ = a.Add(d)
		_ = a.Bind("driver", "out", "m", "in")
		if err := a.StartAll(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Call("driver", "out", component.Request{Payload: i}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblation_Gauges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGauges(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_TxRebind(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTxRebind(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_EddyVsStatic(b *testing.B) {
	n := 4000
	tuples := make([]storage.Tuple, n)
	for i := range tuples {
		tuples[i] = storage.Tuple{storage.IntValue(int64(i))}
	}
	mk := func() []*operators.EddyFilter {
		return []*operators.EddyFilter{
			{Name: "A", Cost: 1, Pred: func(t storage.Tuple) bool {
				if t[0].Int < int64(n/2) {
					return t[0].Int%10 == 0
				}
				return t[0].Int%10 != 0
			}},
			{Name: "B", Cost: 1, Pred: func(t storage.Tuple) bool {
				if t[0].Int < int64(n/2) {
					return t[0].Int%10 != 0
				}
				return t[0].Int%10 == 0
			}},
		}
	}
	b.Run("Static", func(b *testing.B) {
		var w float64
		for i := 0; i < b.N; i++ {
			f := mk()
			w = operators.RunEddy(tuples, []*operators.EddyFilter{f[1], f[0]}, 0).Work
		}
		b.ReportMetric(w, "filter-work")
	})
	b.Run("Eddy", func(b *testing.B) {
		var w float64
		for i := 0; i < b.N; i++ {
			f := mk()
			w = operators.RunEddy(tuples, []*operators.EddyFilter{f[1], f[0]}, 100).Work
		}
		b.ReportMetric(w, "filter-work")
	})
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

func BenchmarkStorage_BTreeInsert(b *testing.B) {
	bt := storage.NewBTree("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Insert(storage.IntValue(int64(i%10000)), storage.RID{Page: storage.PageID(i)})
	}
}

func BenchmarkStorage_HeapInsertScan(b *testing.B) {
	db, hf := benchFile(b)
	row := storage.Tuple{storage.IntValue(1), storage.StringValue("payload")}
	tx := db.Txns().Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Insert(hf, row); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

// benchFile creates a heap file in a DB of its own over fresh
// MemDisks.
func benchFile(tb testing.TB) (*storage.DB, *storage.HeapFile) {
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		tb.Fatal(err)
	}
	hf, err := db.CreateFile("bench")
	if err != nil {
		tb.Fatal(err)
	}
	return db, hf
}

// benchLoad inserts row(0..n-1) into table in one committed transaction.
func benchLoad(tb testing.TB, cat *query.Catalog, table string, n int, row func(i int) storage.Tuple) {
	txn := cat.DB().Txns().Begin()
	for i := 0; i < n; i++ {
		if _, err := cat.InsertTxn(table, row(i), txn); err != nil {
			tb.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkQuery_ParsePlanExecute(b *testing.B) {
	e := query.NewEngine(query.NewCatalog(), nil, nil)
	e.MustExec("CREATE TABLE users (id INT, city STRING)")
	for i := 0; i < 1000; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO users VALUES (%d, 'c%d')", i, i%10))
	}
	e.MustExec("ANALYZE users")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT city, COUNT(*) FROM users WHERE id > 100 GROUP BY city"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponent_Call(b *testing.B) {
	a := component.NewAssembly(nil, nil)
	s := component.New("s").Provide("in", "svc", func(req component.Request) (any, error) {
		return req.Payload, nil
	})
	d := component.New("d").Require("out", "svc")
	_ = a.Add(s)
	_ = a.Add(d)
	_ = a.Bind("d", "out", "s", "in")
	_ = a.StartAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Call("d", "out", component.Request{Payload: i}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstraint_ParseEval(b *testing.B) {
	env := constraint.EnvMap{
		"bandwidth":      64,
		"capacity@node1": 10, "load@node1": 1,
		"capacity@node2": 10, "load@node2": 2,
		"capacity@node3": 10, "load@node3": 3,
	}
	r := constraint.MustParse("If bandwidth > 30 < 100 Kbps then BEST(node1.v, node2.v, node3.v) else node3.s")
	ctx := &constraint.Context{Env: env}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Eval(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// §6 Database Machine: getpage through the ORB vs a syscall boundary.
func BenchmarkDBMachine_GetPage(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		g, err := goos.MeasureGetPage(100)
		if err != nil {
			b.Fatal(err)
		}
		ratio = g.Ratio()
	}
	b.ReportMetric(73, "sim-cycles/getpage")
	b.ReportMetric(ratio, "syscall/orb-ratio")
}

// §1 failover: checkpointed query migrating to a replica.
func BenchmarkFailover_QueryJump(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Failover(); err != nil {
			b.Fatal(err)
		}
	}
}

// §6 extension: learned vs static switching threshold.
func BenchmarkLearning_ThresholdTuner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Learning(); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 7 composition: parallel multi-atom page fetch with replica
// choice per atom.
func BenchmarkFigure7_PageComposition(b *testing.B) {
	reg := monitor.NewRegistry()
	sys := patia.NewSystem([]string{"node1", "node2", "node3"}, reg, trace.New(), nil)
	atoms := []struct {
		a     *patia.Atom
		nodes []string
	}{
		{&patia.Atom{ID: 1, Name: "frame.txt", Type: "text", Bytes: 2_000}, []string{"node1", "node2"}},
		{&patia.Atom{ID: 2, Name: "logo.png", Type: "graphic", Bytes: 30_000}, []string{"node2", "node3"}},
		{&patia.Atom{ID: 3, Name: "clip.ram", Type: "video", Bytes: 900_000}, []string{"node3", "node1"}},
	}
	for _, e := range atoms {
		for _, n := range e.nodes {
			sys.Nodes[n].Store.Put(e.a)
		}
	}
	sys.PublishVitals(0)
	spec := patia.PageSpec{Name: "index.html", AtomIDs: []int{1, 2, 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.FetchPage(spec, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel join: rows/sec across worker counts. On a
// multicore box the 4-worker run should clear 2x the 1-worker rate;
// `admbench -bench` gates the 4w/1w ratio on the same fixture.

func benchParallelJoin(b *testing.B, rowsPerSide, workers int) {
	b.Helper()
	e, err := experiments.ParallelJoinEngine(rowsPerSide)
	if err != nil {
		b.Fatal(err)
	}
	const sql = "SELECT l.v, r.v FROM l JOIN r ON l.k = r.k"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := e.ExecuteSQL(sql, query.ExecOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != rowsPerSide {
			b.Fatalf("join produced %d rows, want %d", len(res.Rows), rowsPerSide)
		}
	}
	b.ReportMetric(float64(2*rowsPerSide)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

func BenchmarkParallelJoin_100k_w1(b *testing.B) { benchParallelJoin(b, 100_000, 1) }
func BenchmarkParallelJoin_100k_w2(b *testing.B) { benchParallelJoin(b, 100_000, 2) }
func BenchmarkParallelJoin_100k_w4(b *testing.B) { benchParallelJoin(b, 100_000, 4) }
func BenchmarkParallelJoin_100k_w8(b *testing.B) { benchParallelJoin(b, 100_000, 8) }

// BenchmarkJoinAggregate is the materialisation gate of the probe
// sinks: one op = a 12k × 1k hash join grouped into 10 rows, at 2
// workers. The final probe folds each match into the aggregate, so an
// op allocates the build table and little else; TestAllocBudgets gates
// B/op — a probe that went back to building the 12k wide joined rows
// first would cost megabytes.
func BenchmarkJoinAggregate(b *testing.B) {
	benchOp(b, joinAggItems+joinAggGroups, joinAggregateOp(b))
}

const joinAggItems, joinAggGroups = 12_000, 1_000

// joinAggregateOp loads BenchmarkJoinAggregate's tables and returns its
// op.
func joinAggregateOp(tb testing.TB) func() {
	e := query.NewEngine(query.NewCatalog(), nil, nil)
	e.MustExec("CREATE TABLE item (id INT, grp INT, price FLOAT, name STRING)")
	e.MustExec("CREATE TABLE grp (g INT, region STRING)")
	cat := e.Catalog()
	const regions = 10
	benchLoad(tb, cat, "item", joinAggItems, func(i int) storage.Tuple {
		return storage.Tuple{storage.IntValue(int64(i)), storage.IntValue(int64(i % joinAggGroups)),
			storage.FloatValue(float64(i%997) / 4), storage.StringValue(fmt.Sprintf("item-%032d", i))}
	})
	benchLoad(tb, cat, "grp", joinAggGroups, func(g int) storage.Tuple {
		return storage.Tuple{storage.IntValue(int64(g)), storage.StringValue(fmt.Sprintf("region-%d", g%regions))}
	})
	e.MustExec("ANALYZE item")
	e.MustExec("ANALYZE grp")
	const sql = "SELECT g.region, COUNT(*), SUM(i.price) FROM item i JOIN grp g ON i.grp = g.g GROUP BY g.region"
	return func() {
		res, _, err := e.ExecuteSQL(sql, query.ExecOptions{Workers: 2})
		if err != nil {
			tb.Fatal(err)
		}
		if len(res.Rows) != regions {
			tb.Fatalf("join-aggregate produced %d rows, want %d", len(res.Rows), regions)
		}
	}
}

// BenchmarkBlindHeapScan is the allocation gate of the vectorized scan
// path: one op = one full batched scan of a 50k-row heap file through
// one HeapBatches made for the op and a reused Batch, version-blind
// (HeapFile.Blind). Steady state must stay O(1) allocs per scan (the
// view and the source) — TestAllocBudgets fails if allocs/op regresses
// above its budget, which would mean per-tuple or per-page allocation
// crept back into the hot path.
func BenchmarkBlindHeapScan(b *testing.B) {
	const rows = 50_000
	benchOp(b, rows, blindScanOp(b, rows))
}

// blindScanOp loads rows rows and returns one version-blind scan of
// them.
func blindScanOp(tb testing.TB, rows int) func() {
	_, hf := scanBenchFile(tb, rows)
	return scanOp(tb, rows, func() (operators.BatchSource, func()) {
		return operators.NewHeapBatches(hf.Blind(), nil, false), func() {}
	})
}

// BenchmarkSnapshotHeapScan is the same scan, under the same budget,
// read through a snapshot opened per op: Begin, the view and the scan
// are O(1) per scan, and judging the versions must allocate nothing.
// Every page holds one committed loader's versions, so each is
// admitted whole by one page verdict (Page.rowsInto). (10k rows: the
// load runs once per b.N.)
func BenchmarkSnapshotHeapScan(b *testing.B) {
	const rows = 10_000
	db, hf := scanBenchFile(b, rows)
	benchOp(b, rows, snapshotScanOp(b, db, hf, rows))
}

// BenchmarkChurnedSnapshotScan is BenchmarkSnapshotHeapScan after one
// committed DELETE per page: every page carries a claim, so no page is
// admitted whole and each is judged version by version.
func BenchmarkChurnedSnapshotScan(b *testing.B) {
	const rows = 10_000
	db, hf := scanBenchFile(b, rows)
	claim := db.Txns().Begin()
	for _, id := range hf.PageIDs() {
		if err := claim.Delete(hf, storage.RID{Page: id}); err != nil {
			b.Fatal(err)
		}
	}
	if err := claim.Commit(); err != nil {
		b.Fatal(err)
	}
	live := rows - len(hf.PageIDs())
	benchOp(b, live, snapshotScanOp(b, db, hf, live))
}

// snapshotScanOp returns one full scan of hf through a snapshot opened
// per op, which must admit rows rows.
func snapshotScanOp(tb testing.TB, db *storage.DB, hf *storage.HeapFile, rows int) func() {
	return scanOp(tb, rows, func() (operators.BatchSource, func()) {
		tx := db.Txns().Begin()
		return operators.NewHeapBatches(tx.View(hf), nil, false), func() { _ = tx.Rollback() } // read-only: nothing to undo, nothing to fail
	})
}

// scanBenchFile loads `rows` two-int rows into a fresh DB's file in one
// committed transaction.
func scanBenchFile(tb testing.TB, rows int) (*storage.DB, *storage.HeapFile) {
	db, hf := benchFile(tb)
	load := db.Txns().Begin()
	for i := 0; i < rows; i++ {
		if _, err := load.Insert(hf, storage.Tuple{storage.IntValue(int64(i)), storage.IntValue(int64(i * 3))}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := load.Commit(); err != nil {
		tb.Fatal(err)
	}
	return db, hf
}

// scanOp returns one full batched scan, which must yield rows rows,
// through a Batch held until tb ends; open hands out the scan of each
// op (done releases what it reads through). It scans once before
// returning, to warm the page decode caches.
func scanOp(tb testing.TB, rows int, open func() (scan operators.BatchSource, done func())) func() {
	batch := operators.GetBatch()
	tb.Cleanup(func() { operators.PutBatch(batch) })
	drain := func() int {
		scan, done := open()
		defer done()
		total := 0
		for {
			n, err := scan.NextBatch(batch)
			if err != nil {
				tb.Fatal(err)
			}
			if n == 0 {
				return total
			}
			total += n
		}
	}
	op := func() {
		if got := drain(); got != rows {
			tb.Fatalf("scanned %d rows, want %d", got, rows)
		}
	}
	op()
	return op
}

// benchOp times op, one run of a benchmark body that reads rows rows.
func benchOp(b *testing.B, rows int, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkParallelSort measures the full parallel ORDER BY pipeline
// over materialised rows: worker-local typed-key runs merged through
// the loser tree and drained.
func benchParallelSort(b *testing.B, rows, workers int) {
	tuples := experiments.SortBenchTuples(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := operators.ParallelSortBatches(
			operators.NewSliceBatches(tuples, 0), 0, false, nil,
			operators.ParallelConfig{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != rows {
			b.Fatalf("sorted %d rows, want %d", len(got), rows)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

func BenchmarkParallelSort_100k_w1(b *testing.B) { benchParallelSort(b, 100_000, 1) }
func BenchmarkParallelSort_100k_w4(b *testing.B) { benchParallelSort(b, 100_000, 4) }

// BenchmarkTopK is the materialisation gate of the bounded Top-K path:
// one op = ORDER BY ... LIMIT 10 over 100k materialised rows through
// the per-worker heaps. TestAllocBudgets gates both allocs/op and B/op
// — a heap that silently re-materialised the input would blow the byte
// budget even if it stayed within a few allocations.
func BenchmarkTopK(b *testing.B) {
	const rows = 100_000
	benchOp(b, rows, topKOp(b, rows))
}

// topKOp returns BenchmarkTopK's op over rows generated rows.
func topKOp(tb testing.TB, rows int) func() {
	const k = 10
	tuples := experiments.SortBenchTuples(rows)
	return func() {
		got, err := operators.ParallelTopKBatches(
			operators.NewSliceBatches(tuples, 0), 0, false, nil, k,
			operators.ParallelConfig{Workers: 4})
		if err != nil {
			tb.Fatal(err)
		}
		if len(got) != k {
			tb.Fatalf("top-k produced %d rows, want %d", len(got), k)
		}
	}
}
