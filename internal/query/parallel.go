package query

import (
	"errors"
	"runtime"
	"strconv"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// This file is the front and back of the one SELECT pipeline: the
// options and report of ExecuteStmt, the plan → route → contain wrapper
// (runSelect), the scans' batch sources, and the tail every statement's
// last pipeline stage writes into. The middle — which scan joins next,
// which side builds, what a safe-point abort changes — is the router in
// routing.go. The data plane is the operators package's batch exchange:
// heap scans decode whole pages into pooled batches, filters compact in
// place inside the scanning worker, joins build/probe on struct keys,
// and every phase fans out over ExecOptions.Workers workers (inline on
// the calling goroutine at one).

// ExecOptions tunes ExecuteStmt.
type ExecOptions struct {
	// Workers is the worker count; <=0 means GOMAXPROCS.
	Workers int
	// BatchSize is the tuples-per-batch granularity of the vectorized
	// exchange; <=0 means the operators-package default (heap scans are
	// page-granular anyway). Results are identical at any batch size —
	// only the amortisation changes.
	BatchSize int
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
	// disabling the compiled filter kernels and zone-summary page vetoes.
	// The boxed path is the reference semantics — benchmarks and
	// differential tests flip this to compare against it.
	NoVectorKernels bool
	// Cancel, when non-nil, is polled by the workers between batches: a
	// non-nil return cancels the statement cooperatively and surfaces
	// as its error. Per-statement deadlines and dead-client kills
	// thread through here into the pipeline. Must be safe for
	// concurrent use and cheap.
	Cancel func() error
	// MemBudget, when non-nil, meters the bytes the statement
	// materialises across every phase; overflow cancels it with
	// operators.ErrMemBudget.
	MemBudget *operators.MemBudget
	// Sink, when set, takes a SELECT's rows instead of Result.Rows.
	Sink RowSink

	// panicInWorker, when set (tests only), is the pipeline's
	// ParallelConfig.OnWorker: it runs inside each worker as it finishes
	// a phase — the injection point the panic-containment tests use to
	// blow up a live worker. Unset, no worker reports anything.
	panicInWorker func(worker int, phase string, rows int)
}

// RowSink takes a SELECT's rows, the values at positions pos of each
// tuple: a bare unordered scan's batch by batch from its workers, any
// other SELECT's at once. Calls never overlap; rows is theirs alone.
type RowSink interface {
	Rows(names []string, pos []int, rows []storage.Tuple) error
}

// ExecReport describes how ExecuteStmt ran.
type ExecReport struct {
	// Parallel is false when the statement was not a SELECT, or when a
	// contained worker panic re-ran it at one worker (PanicContained).
	Parallel bool
	// PanicContained is true when a worker panicked and the statement
	// was re-run once on the same pipeline at one worker with
	// adaptation off (runSelect): one bad worker degrades the query
	// instead of killing the process.
	PanicContained bool
	// Workers is the effective worker count of a SELECT.
	Workers int
	// Adaptive reports what the mid-query re-optimiser did.
	Adaptive AdaptiveReport
	Sent     int // rows handed to ExecOptions.Sink, failed or not
}

func (o ExecOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
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
// shared heap cursors with kernel-fused filtering (a zone-summary veto
// and vectorized conjuncts inside the claiming worker) on the sequential
// path, the boxed in-place filter when kernels are disabled, and a
// shared cursor over the index postings, fetching runs of size, every
// predicate re-checked on what it fetches, on the index path. With rids
// every batch carries its tuples' RIDs (an index scan's always do).
func scanBatches(sp *scanPlan, size int, rids bool) (operators.BatchSource, error) {
	var src operators.BatchSource
	switch {
	case sp.indexCol != "":
		idx, _ := sp.table.Index(sp.indexCol)
		src = operators.NewIndexScan(sp.reader, idx, sp.indexLo, sp.indexHi, size)
	case len(sp.preds) > 0 && !sp.noKernel:
		k, err := sp.filterKernel()
		if err != nil {
			return nil, err
		}
		return operators.NewHeapBatches(sp.reader, k, rids), nil
	default:
		src = operators.NewHeapBatches(sp.reader, nil, rids)
	}
	if len(sp.preds) > 0 {
		pred, err := compilePreds(sp.sch, sp.preds)
		if err != nil {
			return nil, err
		}
		src = operators.NewFilterBatches(src, pred)
	}
	return src, nil
}

// runSelect runs a SELECT on the pipeline, with panic containment: a
// worker panic surfaces as *operators.PanicError after all its peers
// have drained at the phase barrier (the failFlag protocol), so nothing
// of the failed run still touches shared state. Unless a row has
// already left for opts.Sink (a re-run would send it twice), the
// statement is then planned afresh and run once more at one worker with
// adaptation off: that escapes worker races and every router move
// (replans, safe points, PreferIndex), but not a deterministic bug in
// one-worker pipeline code, whose second panic is the statement's
// error. Other errors pass through untouched.
func (e *Engine) runSelect(st *SelectStmt, opts ExecOptions) (*Result, *ExecReport, error) {
	res, rep, err := e.runPipeline(st, opts)
	var pe *operators.PanicError
	if !errors.As(err, &pe) || rep.Sent > 0 {
		return res, rep, err
	}
	e.log.Span("query.parallel").Emit(e.clock(), trace.KindPanic,
		"worker %d panicked in %s phase (%v); re-running at one worker, adaptation off", pe.Worker, pe.Phase, pe.Value)
	opts.Workers, opts.Adaptive = 1, &AdaptiveConfig{Disabled: true}
	res, rep, err = e.runPipeline(st, opts)
	if rep != nil {
		rep.Parallel, rep.PanicContained = false, true
	}
	return res, rep, err
}

// runPipeline plans a SELECT and runs it on the router.
func (e *Engine) runPipeline(st *SelectStmt, opts ExecOptions) (*Result, *ExecReport, error) {
	plan, err := e.planSelectOrder(st, opts.Txn, opts.JoinOrder)
	if err != nil {
		return nil, nil, err
	}
	tail, err := compileTail(st, plan.sch)
	if err != nil {
		return nil, nil, err
	}
	tail.sink = opts.Sink
	if opts.NoVectorKernels {
		for _, sp := range plan.scans {
			sp.noKernel = true
		}
	}
	rep := &ExecReport{Parallel: true, Workers: opts.workers()}
	if sp := plan.scans[0]; len(plan.scans) == 1 && sp.indexCol != "" && tail.agg == nil && tail.order < 0 {
		// A zero-step index drain runs inline: an index path is chosen
		// for being selective (a keyed lookup fetches one row) and its
		// postings are claimed a batch at a time, so a second worker
		// would cost its launch and mostly find nothing left to claim.
		rep.Workers = 1
	}
	plan.explainTx = "Parallel(workers=" + strconv.Itoa(rep.Workers) + ") " + plan.explainTx

	res, err := e.execStagedJoins(plan, &tail, opts, rep)
	rep.Sent = tail.sent
	if err != nil {
		return nil, rep, err
	}
	if rep.Adaptive.Replanned {
		// Post-execution adaptation summary: where the router fired.
		res.Plan += " | " + rep.Adaptive.Describe()
	}
	// Per-scan filter summaries: kernel vs boxed conjuncts and the
	// page prune counters observed during this execution.
	for _, sp := range plan.scans {
		if fs := sp.filterSummary(); fs != "" {
			res.Plan += " | " + fs
		}
	}
	return res, rep, nil
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
	sink  RowSink // ExecOptions.Sink
	sent  int     // rows handed to sink
}

// EmitRows streams a scan's batch: the select list leads tail.cols.
func (t *selectTail) EmitRows(rows []storage.Tuple) error {
	t.sent += len(rows)
	return t.sink.Rows(t.names, t.cols[:len(t.names)], rows)
}

func compileTail(st *SelectStmt, sch schema) (selectTail, error) {
	t := selectTail{order: -1}
	if hasAggregate(st) || st.GroupBy != nil {
		ap, err := compileAggregate(st, sch)
		if err != nil {
			return t, err
		}
		t.agg, t.names = ap, ap.outCols
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
	m := plan.declCols(ps)
	if tail.agg != nil {
		rows, err := ps.table.ProbeAggregate(ps.src, ps.col, cfg, ps.on, m, tail.agg.groupCol, tail.agg.specs, tail.agg.perm)
		if err != nil {
			return nil, err
		}
		return e.finishRows(plan, tail, rows, cfg)
	}
	cols := make([]operators.PairCol, len(tail.cols))
	for i, c := range tail.cols {
		cols[i] = m[c]
	}
	probeCfg := cfg
	if st := plan.stmt; tail.order < 0 && st.Limit > 0 {
		// Unordered LIMIT, as in scanTail: the quota stops the probe
		// workers claiming batches.
		probeCfg.Limit = st.Limit
	}
	rows, err := ps.table.ProbeProject(ps.src, ps.col, probeCfg, ps.on, cols)
	if err != nil {
		return nil, err
	}
	return e.finishRows(plan, tail, rows, cfg)
}

// scanTail is the zero-join pipeline: the scan's batch source feeds
// the aggregate, the sort or the drain — a stream, into a sink — directly.
// It is also how the router ends a statement whose joined prefix came
// out empty.
func (e *Engine) scanTail(plan *selectPlan, tail *selectTail, src operators.BatchSource,
	cfg operators.ParallelConfig) (*Result, error) {
	st := plan.stmt
	if tail.agg != nil {
		rows, err := operators.ParallelHashAggregateBatches(src, tail.agg.groupCol, tail.agg.specs, tail.agg.perm, cfg)
		if err != nil {
			return nil, err
		}
		return e.finishRows(plan, tail, rows, cfg)
	}
	var rows []storage.Tuple
	var err error
	if tail.order >= 0 {
		// Bare ordered scan: runs (or Top-K heaps) form inside the scan
		// workers themselves — pages are claimed, keys extracted and
		// partial orders built without an intermediate unordered
		// materialisation. Key ties break on the columns the tail keeps,
		// as they do on a narrow probe row, never on one it drops.
		rows, err = orderSourceParallel(src, tail.cols[tail.order], st.Desc, tail.cols, st.Limit, cfg)
	} else {
		if st.Limit > 0 {
			// Unordered LIMIT: any prefix is valid, so a satisfied quota
			// stops the workers claiming pages (early termination). A
			// zero quota is none: LIMIT 0 drains, and finishProject cuts.
			cfg.Limit = st.Limit
		}
		if tail.sink != nil && st.Limit != 0 {
			err = operators.StreamParallelBatches(src, cfg, tail)
		} else {
			rows, err = operators.DrainParallelBatches(src, cfg)
		}
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
// loser tree. Key ties break on the contents of the tie columns (nil:
// the whole row), so the returned rows are globally ordered and
// identical at any worker count and batch size.
func orderSourceParallel(src operators.BatchSource, idx int, desc bool, tie []int, limit int,
	cfg operators.ParallelConfig) ([]storage.Tuple, error) {
	if limit >= 0 {
		return operators.ParallelTopKBatches(src, idx, desc, tie, limit, cfg)
	}
	return operators.ParallelSortBatches(src, idx, desc, tie, cfg)
}

// finishProject ends a SELECT once rows are in their final order:
// LIMIT, then the rows, whose select list sits at positions pos, go to
// the sink or, with none, are cut down to it in Result.Rows.
func (e *Engine) finishProject(plan *selectPlan, tail *selectTail, rows []storage.Tuple,
	pos []int) (*Result, error) {
	if st := plan.stmt; st.Limit >= 0 && st.Limit < len(rows) {
		rows = rows[:st.Limit]
	}
	if tail.sink != nil {
		tail.sent += len(rows)
		return &Result{Cols: tail.names, Plan: plan.Explain()}, tail.sink.Rows(tail.names, pos, rows)
	}
	prefix := true
	for i, c := range pos {
		prefix = prefix && c == i
	}
	if !prefix {
		var err error
		if rows, err = operators.ProjectTuples(nil, rows, pos); err != nil {
			return nil, err
		}
	} else if len(rows) > 0 && len(rows[0]) > len(pos) {
		// The select list leads every row (SELECT *; a narrow probe row
		// with its ORDER BY column riding last): re-slice, nothing to copy.
		for i, t := range rows {
			rows[i] = t[:len(pos)]
		}
	}
	return &Result{Cols: tail.names, Rows: rows, Plan: plan.Explain()}, nil
}

// finishRows ends a SELECT whose rows lead with its select list (an
// aggregate's groups; narrow probe rows, the ORDER BY column riding
// last): ordered on the parallel pipeline, then finishProject.
func (e *Engine) finishRows(plan *selectPlan, tail *selectTail, rows []storage.Tuple,
	cfg operators.ParallelConfig) (*Result, error) {
	if st := plan.stmt; tail.order >= 0 {
		var err error
		src := operators.NewSliceBatches(rows, cfg.MorselSize)
		if rows, err = orderSourceParallel(src, tail.order, st.Desc, nil, st.Limit, cfg); err != nil {
			return nil, err
		}
	}
	return e.finishProject(plan, tail, rows, identityOrder(len(tail.names)))
}
