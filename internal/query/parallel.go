package query

import (
	"errors"
	"fmt"
	"runtime"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// This file wires the morsel-driven exchange layer (operators
// package) into the SQL engine: ExecuteSQL runs SPJ + aggregation
// plans across a configurable worker pool while preserving the
// Scenario 3 safe-point protocol. The data plane is the vectorized
// batch path: heap scans decode whole pages into pooled batches,
// filters compact in place inside the scanning worker, and joins
// build/probe on struct keys. The parallel build observes the
// cumulative cardinality from every worker; when any worker's
// observation trips the misestimate check, all workers drain at the
// phase barrier and the plan is revised exactly as in the serial
// adaptive executor — the consumed build prefix replays as probe
// input of the side-swapped join, so no tuple is lost or duplicated.
// Safe points are checked at batch granularity, but the replayed
// prefix counts tuples, so replay is exact regardless of batch size.

// ExecOptions tunes ExecuteSQL.
type ExecOptions struct {
	// Workers is the worker count; <=0 means GOMAXPROCS.
	Workers int
	// BatchSize is the tuples-per-batch granularity of the vectorized
	// exchange; <=0 means the operators-package default (heap scans are
	// page-granular anyway). Results are identical at any batch size —
	// only the amortisation changes.
	BatchSize int
	// MorselSize is the legacy name for BatchSize and is used when
	// BatchSize is zero.
	MorselSize int
	// Adaptive tunes mid-query re-optimisation; nil means
	// DefaultAdaptiveConfig() — the safe-point protocol is always on.
	Adaptive *AdaptiveConfig
	// JoinOrder selects the planner's join-ordering strategy
	// (default JoinOrderGreedy). JoinOrderDeclared is the mis-ordered
	// baseline knob benchmarks use.
	JoinOrder JoinOrder
	// Txn, when non-nil, executes the statement inside that
	// transaction: scans bind to its snapshot (reads stay lock-free
	// across every worker) and DML stamps its id.
	Txn *storage.Txn
	// NoVectorKernels forces the boxed per-row predicate path,
	// disabling the compiled filter kernels and zone-map page pruning.
	// The boxed path is the reference semantics — benchmarks and
	// differential tests flip this to compare against it.
	NoVectorKernels bool
	// Cancel, when non-nil, is polled by the parallel workers between
	// batches: a non-nil return cancels the statement cooperatively
	// and surfaces as its error. Per-statement deadlines and
	// dead-client kills thread through here into the morsel
	// pipelines. Must be safe for concurrent use and cheap.
	Cancel func() error
	// MemBudget, when non-nil, meters the bytes the statement
	// materialises across every parallel phase; overflow cancels it
	// with operators.ErrMemBudget.
	MemBudget *operators.MemBudget

	// panicInWorker, when set (tests only), runs inside each worker
	// goroutine as it finishes a phase — the injection point the
	// panic-containment tests use to blow up a live worker.
	panicInWorker func(worker int, phase string)
}

// ExecReport describes how ExecuteSQL ran.
type ExecReport struct {
	// Parallel is false when the statement took the serial path
	// (non-SELECT, or an unsupported shape such as multi-join).
	Parallel bool
	// Workers is the effective worker count of a parallel run.
	Workers int
	// Adaptive reports what the mid-query re-optimiser did.
	Adaptive AdaptiveReport
	// PanicContained is true when a parallel worker panicked and the
	// statement was transparently re-executed on the serial plan: one
	// bad worker degrades the query instead of killing the process.
	PanicContained bool

	// scans carries the executed plan's scan list out of the run so the
	// outer wrapper can append each scan's filter summary (kernel vs
	// boxed, pages pruned) to the plan rendering post-execution.
	scans []*scanPlan
}

// ExecuteSQL parses and executes one statement with the parallel
// executor. SELECTs over zero or one join run across workers;
// everything else falls back to the serial engine (Report.Parallel
// reports which happened). Result row order is nondeterministic
// unless the statement has an ORDER BY.
func (e *Engine) ExecuteSQL(sql string, opts ExecOptions) (*Result, *ExecReport, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return e.ExecuteStmt(st, opts)
}

// ExecuteStmt is ExecuteSQL over a pre-parsed statement (the server
// front-end parses once to route transaction control before execution).
func (e *Engine) ExecuteStmt(st Stmt, opts ExecOptions) (*Result, *ExecReport, error) {
	sel, ok := st.(*SelectStmt)
	if !ok {
		res, err := e.ExecStmtTxn(st, opts.Txn)
		return res, &ExecReport{}, err
	}
	return e.execSelectParallel(sel, opts)
}

func (o ExecOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// batchSize resolves the effective batch granularity (0 = operator
// default).
func (o ExecOptions) batchSize() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return o.MorselSize
}

func (o ExecOptions) adaptive() AdaptiveConfig {
	if o.Adaptive != nil {
		cfg := *o.Adaptive
		if cfg.Theta <= 1 {
			cfg.Theta = 3
		}
		if cfg.CheckEvery <= 0 {
			cfg.CheckEvery = 64
		}
		return cfg
	}
	return DefaultAdaptiveConfig()
}

// scanBatches builds the batch source for one scan: page-granular
// shared heap cursors with kernel-fused filtering (zone-map pruning +
// vectorized conjuncts inside the claiming worker) on the sequential
// path, the boxed in-place filter when kernels are disabled, and a
// serialised (but still fan-out-feeding) adapter on the index path.
func scanBatches(sp *scanPlan, size int) (operators.BatchSource, error) {
	if sp.indexCol != "" {
		it, err := sp.build()
		if err != nil {
			return nil, err
		}
		return operators.NewIterBatches(it, size), nil
	}
	if len(sp.preds) > 0 && !sp.noKernel {
		k, err := sp.filterKernel()
		if err != nil {
			return nil, err
		}
		return operators.NewHeapBatchesKernel(sp.reader, k), nil
	}
	var src operators.BatchSource = operators.NewHeapBatches(sp.reader)
	if len(sp.preds) > 0 {
		pred, err := compilePreds(sp.sch, sp.preds)
		if err != nil {
			return nil, err
		}
		src = operators.NewFilterBatches(src, pred)
	}
	return src, nil
}

// execSelectParallel runs the parallel plan with panic containment:
// a worker panic surfaces as *operators.PanicError after all its
// peers have drained at the phase barrier (the failFlag protocol), at
// which point no goroutine of the failed run is still touching shared
// state — so the statement is transparently re-executed on the serial
// plan. Errors other than contained panics pass through untouched.
func (e *Engine) execSelectParallel(st *SelectStmt, opts ExecOptions) (*Result, *ExecReport, error) {
	res, rep, err := e.execSelectParallelRun(st, opts)
	var pe *operators.PanicError
	if !errors.As(err, &pe) {
		if err == nil && res != nil && rep != nil {
			if rep.Adaptive.Replanned {
				// Post-execution adaptation summary: where the router fired.
				res.Plan += " | " + rep.Adaptive.Describe()
			}
			// Per-scan filter summaries: kernel vs boxed conjuncts and the
			// zone-map prune counters observed during this execution.
			for _, sp := range rep.scans {
				if fs := sp.filterSummary(); fs != "" {
					res.Plan += " | " + fs
				}
			}
		}
		return res, rep, err
	}
	e.log.Span("query.parallel").Emit(e.clock(), trace.KindPanic,
		"worker %d panicked in %s phase (%v); degrading to serial plan", pe.Worker, pe.Phase, pe.Value)
	res, serr := e.execSelect(st, opts.Txn)
	if rep == nil {
		rep = &ExecReport{}
	}
	rep.Parallel = false
	rep.PanicContained = true
	return res, rep, serr
}

func (e *Engine) execSelectParallelRun(st *SelectStmt, opts ExecOptions) (*Result, *ExecReport, error) {
	plan, err := e.planSelectOrder(st, opts.Txn, opts.JoinOrder)
	if err != nil {
		return nil, nil, err
	}
	rep := &ExecReport{}
	if plan.hasCross() {
		// Cartesian attaches (disconnected join graphs) stay on the
		// serial executor.
		res, err := e.execSelect(st, opts.Txn)
		return res, rep, err
	}
	tail, err := compileTail(st, plan.sch)
	if err != nil {
		return nil, nil, err
	}
	if opts.NoVectorKernels {
		for _, sp := range plan.scans {
			sp.noKernel = true
		}
	}
	rep.scans = plan.scans
	workers := opts.workers()
	batch := opts.batchSize()
	rep.Parallel = true
	rep.Workers = workers
	plan.explainTx = fmt.Sprintf("Parallel(workers=%d) ", workers) + plan.explainTx

	if len(plan.steps) > 1 {
		// Multi-join: the staged router executes the pipeline one hash
		// join at a time, re-routing at safe points on cardinality
		// feedback.
		res, err := e.execStagedJoins(plan, &tail, opts, rep)
		return res, rep, err
	}

	span := e.log.Span("query.parallel")
	cfg := operators.ParallelConfig{
		Workers:    workers,
		MorselSize: batch,
		Cancel:     opts.Cancel,
		Budget:     opts.MemBudget,
		OnWorker: func(w int, phase string, rows int) {
			if opts.panicInWorker != nil {
				opts.panicInWorker(w, phase)
			}
			span.Sub(fmt.Sprintf("w%d", w)).Emit(e.clock(), trace.KindInfo,
				"%s phase done: %d rows", phase, rows)
		},
	}

	if len(plan.steps) == 0 {
		src, err := scanBatches(plan.scans[0], batch)
		if err != nil {
			return nil, nil, err
		}
		res, err := e.scanTail(plan, &tail, src, cfg)
		return res, rep, err
	}

	// Single join: partitioned parallel hash join under the safe-point
	// protocol.
	acfg := opts.adaptive()
	sides, err := plan.singleJoinSides()
	if err != nil {
		return nil, nil, err
	}
	rep.Adaptive.InitialBuild = sides.build.ref.Binding()
	rep.Adaptive.FinalBuild = sides.build.ref.Binding()
	rep.Adaptive.EstimatedBuildRows = sides.build.estRows

	// Build-side batches are capped at the safe-point cadence so every
	// worker re-checks the misestimate bound at least every CheckEvery
	// rows of its own progress.
	buildBatch := acfg.CheckEvery
	if batch > 0 && batch < buildBatch {
		buildBatch = batch
	}
	buildSrc, err := scanBatches(sides.build, buildBatch)
	if err != nil {
		return nil, nil, err
	}
	limit := acfg.Theta * sides.build.estRows
	safePoint := func(rows int) bool {
		span.Emit(e.clock(), trace.KindSafePoint,
			"build safe point at %d rows (est %.0f)", rows, sides.build.estRows)
		return float64(rows) <= limit
	}
	if acfg.Disabled {
		safePoint = nil
	}
	buildCfg := cfg
	buildCfg.MorselSize = buildBatch

	// b, p: the build and probe scans' join-order indexes.
	b, p := 1, 0
	if sides.buildIsLeft {
		b, p = 0, 1
	}
	var stage probeStage
	bt, prefix, err := operators.ParallelBuildBatches(buildSrc, sides.buildCol, buildCfg, safePoint)
	switch {
	case err == nil:
		// Statistics held: probe straight through.
		probeSrc, err := scanBatches(sides.probe, batch)
		if err != nil {
			return nil, nil, err
		}
		rep.Adaptive.PeakHashRows = bt.Rows()
		rep.Adaptive.ExecutedOrder = []string{sides.build.ref.Binding(), sides.probe.ref.Binding()}
		stage = probeStage{table: bt, src: probeSrc, col: sides.probeCol, build: []int{b}, probe: []int{p}}

	case errors.Is(err, operators.ErrBuildAborted):
		// Violation: every worker has drained at the barrier; revise the
		// plan by swapping sides. The consumed prefix plus the untouched
		// remainder of the build source become the probe stream.
		rep.Adaptive.Replanned = true
		rep.Adaptive.Replans = 1
		rep.Adaptive.TriggerRow = len(prefix)
		span.Emit(e.clock(), trace.KindViolation,
			"cardinality misestimate: %s build hit %d rows vs est %.0f (θ=%.1f); workers drained at barrier",
			sides.build.ref.Binding(), len(prefix), sides.build.estRows, acfg.Theta)
		newBuild := sides.probe
		rep.Adaptive.FinalBuild = newBuild.ref.Binding()
		span.Emit(e.clock(), trace.KindReoptimize,
			"swapped join build side %s -> %s at row %d",
			rep.Adaptive.InitialBuild, rep.Adaptive.FinalBuild, len(prefix))
		newSrc, err := scanBatches(newBuild, batch)
		if err != nil {
			return nil, nil, err
		}
		nbt, _, err := operators.ParallelBuildBatches(newSrc, sides.probeCol, cfg, nil)
		if err != nil {
			return nil, nil, err
		}
		replay := operators.NewChainBatches(
			operators.NewSliceBatches(prefix, buildBatch), buildSrc)
		rep.Adaptive.PeakHashRows = maxInt(len(prefix), nbt.Rows())
		rep.Adaptive.ExecutedOrder = []string{newBuild.ref.Binding(), sides.build.ref.Binding()}
		// The roles flip: the old probe side is the table, the old build
		// side streams through it.
		stage = probeStage{table: nbt, src: replay, col: sides.buildCol, build: []int{p}, probe: []int{b}}

	default:
		return nil, nil, err
	}
	res, err := e.probeTail(plan, &tail, stage, cfg)
	return res, rep, err
}

// selectTail is everything a SELECT does after its last pipeline stage
// (scan or final probe), compiled once against the declaration-order
// schema. It decides which sink that stage writes into: the aggregate
// (agg != nil), or a projection of cols.
type selectTail struct {
	agg *aggPlan
	// cols are the declaration-order columns a non-aggregate tail needs:
	// the select list (one per name), then the ORDER BY column when the
	// list lacks it.
	cols  []int
	names []string
	// order locates the ORDER BY column — in cols, or in the aggregate's
	// output row; -1 without ORDER BY.
	order int
}

func compileTail(st *SelectStmt, sch schema) (selectTail, error) {
	t := selectTail{order: -1}
	if hasAggregate(st) || st.GroupBy != nil {
		ap, err := compileAggregate(st, sch)
		if err != nil {
			return t, err
		}
		t.agg = ap
		if st.OrderBy != nil {
			if t.order, err = ap.outSch.resolve(*st.OrderBy); err != nil {
				return t, err
			}
		}
		return t, nil
	}
	cols, names, err := projectionCols(st, sch)
	if err != nil {
		return t, err
	}
	t.cols, t.names = cols, names
	if st.OrderBy != nil {
		idx, err := sch.resolve(*st.OrderBy)
		if err != nil {
			return t, err
		}
		for i, c := range cols {
			if c == idx {
				t.order = i
				break
			}
		}
		if t.order < 0 {
			t.order = len(t.cols)
			t.cols = append(t.cols, idx)
		}
	}
	return t, nil
}

// probeStage is one hash probe ready to run: the built table, the
// stream that probes it, and which scans' columns (join-order indexes,
// in tuple order) make up each side of a match.
type probeStage struct {
	table        *operators.BuildTable
	src          operators.BatchSource
	col          int                // probe key column in src's tuples
	on           []operators.PairEq // residual ON equalities
	build, probe []int
}

// pairCol locates column col of scan in a match of ps.
func (p *selectPlan) pairCol(ps probeStage, scan, col int) operators.PairCol {
	if i := posIn(p, ps.build, scan, col); i >= 0 {
		return operators.PairCol{Idx: i}
	}
	return operators.PairCol{Probe: true, Idx: posIn(p, ps.probe, scan, col)}
}

// declCols maps every declaration-order column onto a match of ps,
// whatever join order, build sides and replans produced it.
func (p *selectPlan) declCols(ps probeStage) []operators.PairCol {
	byDecl := make([]int, len(p.scans))
	for ji, sp := range p.scans {
		byDecl[sp.declPos] = ji
	}
	m := make([]operators.PairCol, 0, len(p.sch))
	for _, ji := range byDecl {
		for k := range p.scans[ji].sch {
			m = append(m, p.pairCol(ps, ji, k))
		}
	}
	return m
}

// probeTail runs a statement's final probe straight into the sink its
// tail selects, so the joined relation is never built: an aggregate
// folds each match into worker-local state; anything else gets narrow
// rows holding just tail.cols, already in select-list order.
func (e *Engine) probeTail(plan *selectPlan, tail *selectTail, ps probeStage,
	cfg operators.ParallelConfig) (*Result, error) {
	st := plan.stmt
	m := plan.declCols(ps)
	if tail.agg != nil {
		groups, err := ps.table.ProbeAggregate(ps.src, ps.col, cfg, ps.on, m, tail.agg.groupCol, tail.agg.specs)
		if err != nil {
			return nil, err
		}
		return e.finishAggregate(plan, tail, groups, cfg)
	}
	cols := make([]operators.PairCol, len(tail.cols))
	for i, c := range tail.cols {
		cols[i] = m[c]
	}
	probeCfg := cfg
	if tail.order < 0 && st.Limit > 0 {
		// Unordered LIMIT, as in scanTail: the quota stops the probe
		// workers claiming batches.
		probeCfg.Limit = st.Limit
	}
	rows, err := ps.table.ProbeProject(ps.src, ps.col, probeCfg, ps.on, cols)
	if err != nil {
		return nil, err
	}
	if tail.order >= 0 {
		if rows, err = orderRowsParallel(rows, tail.order, st.Desc, st.Limit, cfg); err != nil {
			return nil, err
		}
	}
	return e.finishProject(plan, tail, rows, identityOrder(len(tail.names)))
}

// scanTail is the zero-join pipeline: the scan's batch source feeds
// the aggregate, the sort or the drain directly.
func (e *Engine) scanTail(plan *selectPlan, tail *selectTail, src operators.BatchSource,
	cfg operators.ParallelConfig) (*Result, error) {
	st := plan.stmt
	if tail.agg != nil {
		groups, err := operators.ParallelHashAggregateBatches(src, tail.agg.groupCol, tail.agg.specs, cfg)
		if err != nil {
			return nil, err
		}
		return e.finishAggregate(plan, tail, groups, cfg)
	}
	var rows []storage.Tuple
	var err error
	if tail.order >= 0 {
		// Bare ordered scan: runs (or Top-K heaps) form inside the scan
		// workers themselves — pages are claimed, keys extracted and
		// partial orders built without an intermediate unordered
		// materialisation.
		rows, err = orderSourceParallel(src, tail.cols[tail.order], st.Desc, st.Limit, cfg)
	} else {
		if st.Limit > 0 {
			// Unordered LIMIT: any prefix is valid, so a satisfied quota
			// stops the workers claiming pages (early termination).
			cfg.Limit = st.Limit
		}
		rows, err = operators.DrainParallelBatches(src, cfg)
	}
	if err != nil {
		return nil, err
	}
	return e.finishProject(plan, tail, rows, tail.cols[:len(tail.names)])
}

// hasAggregate reports whether any select item aggregates.
func hasAggregate(st *SelectStmt) bool {
	for _, item := range st.Items {
		if item.Agg != AggNone {
			return true
		}
	}
	return false
}

// orderSourceParallel runs the parallel sort pipeline over src: a
// bounded Top-K (limit >= 0) or worker-local runs merged through the
// loser tree. The returned rows are globally ordered and — by the
// shared comparator and content tie-break — identical to the serial
// Sort/TopK output at any worker count and batch size.
func orderSourceParallel(src operators.BatchSource, idx int, desc bool, limit int,
	cfg operators.ParallelConfig) ([]storage.Tuple, error) {
	if limit >= 0 {
		return operators.ParallelTopKBatches(src, idx, desc, limit, cfg)
	}
	merge, err := operators.ParallelSortBatches(src, idx, desc, cfg)
	if err != nil {
		return nil, err
	}
	return operators.Drain(merge)
}

// orderRowsParallel is orderSourceParallel over already-materialised
// rows (join output, aggregate output).
func orderRowsParallel(rows []storage.Tuple, idx int, desc bool, limit int,
	cfg operators.ParallelConfig) ([]storage.Tuple, error) {
	return orderSourceParallel(operators.NewSliceBatches(rows, cfg.MorselSize), idx, desc, limit, cfg)
}

// finishProject ends a non-aggregate SELECT once rows are in their
// final order: LIMIT, then every row cut down to the select list, whose
// items sit at positions pos of it.
func (e *Engine) finishProject(plan *selectPlan, tail *selectTail, rows []storage.Tuple,
	pos []int) (*Result, error) {
	if st := plan.stmt; st.Limit >= 0 && st.Limit < len(rows) {
		rows = rows[:st.Limit]
	}
	prefix := true
	for i, c := range pos {
		prefix = prefix && c == i
	}
	if !prefix {
		out, err := operators.ProjectTuples(nil, rows, pos)
		if err != nil {
			return nil, err
		}
		return &Result{Cols: tail.names, Rows: out, Plan: plan.Explain()}, nil
	}
	// The select list leads every row (SELECT *; a narrow probe row with
	// its ORDER BY column riding last): re-slice, nothing to copy.
	if len(rows) > 0 && len(rows[0]) > len(pos) {
		for i, t := range rows {
			rows[i] = t[:len(pos)]
		}
	}
	return &Result{Cols: tail.names, Rows: rows, Plan: plan.Explain()}, nil
}

// finishAggregate ends an aggregate SELECT: the merged groups are
// re-projected to select-item order through the arena path, then
// ordered on the same parallel pipeline and cut to LIMIT.
func (e *Engine) finishAggregate(plan *selectPlan, tail *selectTail, groups []storage.Tuple,
	cfg operators.ParallelConfig) (*Result, error) {
	st := plan.stmt
	out, err := operators.ProjectTuples(nil, groups, tail.agg.perm)
	if err != nil {
		return nil, err
	}
	if tail.order >= 0 {
		if out, err = orderRowsParallel(out, tail.order, st.Desc, st.Limit, cfg); err != nil {
			return nil, err
		}
	}
	if st.Limit >= 0 && st.Limit < len(out) {
		out = out[:st.Limit]
	}
	return &Result{Cols: tail.agg.outCols, Rows: out, Plan: plan.Explain()}, nil
}
