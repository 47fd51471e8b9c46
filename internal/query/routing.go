package query

import (
	"errors"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// This file is the eddies-style staged router, the one executor every
// SELECT runs on. The plan's join tree is not compiled into a fixed
// operator chain; instead the router materialises one hash join at a
// time and, before each one, re-decides which remaining scan to attach
// and which side builds, using live cardinality feedback:
//
//   - the joined prefix's cardinality is exact (it is materialised);
//   - every base-scan estimate starts from the optimiser's guess and
//     is corrected upward whenever a safe-point build abort proves it
//     low (est' = max(est·θ, observed)), so repeated misestimates
//     decay geometrically and the loop must terminate;
//   - candidate ranking reuses the planner's attachEst, so the router
//     and the greedy planner agree whenever the statistics were right.
//
// A plan is a number of steps. Zero (a bare scan) goes straight to the
// tail with no router state at all. One is the classic Scenario 3 case:
// the first build aborts, its estimate is corrected, and re-routing
// picks the other side to build — the inner↔outer swap — or, with
// PreferIndex, links an index nested-loop join in. A scan no ON
// equality connects to the prefix attaches cartesian, as a hash join on
// a constant key, so it flows through the same build, probe and sinks.
//
// Determinism: a build abort drains every worker at the phase barrier
// and hands back the consumed prefix, which is re-chained in front of
// the untouched remainder of that scan's batch source — no tuple is
// lost or read twice, whatever the worker count or batch size. Join
// output is a set: routing order changes the column layout (the final
// probe maps declared columns onto whatever it turned out to be) and
// the row order (meaningless without ORDER BY, and ORDER BY has a
// total-order tie-break), never the result multiset.

// execStagedJoins executes a planned SELECT with continuous safe-point
// adaptation. Every step but the last materialises its output — the
// router needs the exact cardinality to pick the next one; the last
// probes straight into the tail's sink (probeTail). rep.Adaptive is
// filled in.
func (e *Engine) execStagedJoins(plan *selectPlan, tail *selectTail, opts ExecOptions, rep *ExecReport) (*Result, error) {
	batch := opts.BatchSize
	cfg := operators.ParallelConfig{
		Workers:    rep.Workers,
		MorselSize: batch,
		Cancel:     opts.Cancel,
		Budget:     opts.MemBudget,
		OnWorker:   opts.panicInWorker,
	}
	n := len(plan.scans)
	if n == 1 {
		src, err := scanBatches(plan.scans[0], batch, false)
		if err != nil {
			return nil, err
		}
		return e.scanTail(plan, tail, src, cfg)
	}

	span := e.log.Span("query.parallel")
	acfg := opts.adaptive()
	// Build batches are capped at the safe-point cadence, so every worker
	// re-checks the misestimate bound at least every CheckEvery rows of
	// its own progress; every scan source uses that granularity so an
	// aborted prefix re-chains onto its source exactly.
	buildBatch := acfg.CheckEvery
	if batch > 0 && batch < buildBatch {
		buildBatch = batch
	}
	buildCfg := cfg
	buildCfg.MorselSize = buildBatch

	est := make([]float64, n) // live per-scan estimates, corrected on aborts
	for i, sp := range plan.scans {
		est[i] = sp.estRows
	}
	adj := buildAdjacency(n, plan.edges)
	srcs := make([]operators.BatchSource, n)
	src := func(i int) (operators.BatchSource, error) {
		if srcs[i] == nil {
			s, err := scanBatches(plan.scans[i], buildBatch, false)
			if err != nil {
				return nil, err
			}
			srcs[i] = s
		}
		return srcs[i], nil
	}

	seed := 0
	chosen := make([]bool, n)
	chosen[seed] = true
	attached := 1
	usedEdge := make([]bool, len(plan.edges))
	var layout []int        // scan indices in the intermediate's column order
	var cur []storage.Tuple // materialised joined prefix (nil before first join)

	for {
		curEst := est[seed]
		if cur != nil {
			curEst = float64(len(cur))
		}

		// Route: which scan joins next?
		next := -1
		if acfg.Disabled {
			next = attached // follow the static plan verbatim
		} else {
			var bestCost float64
			for c := 0; c < n; c++ {
				if chosen[c] {
					continue
				}
				out, conn := attachEst(curEst, est[c], c, plan.scans, plan.edges, adj, chosen)
				if !conn {
					continue
				}
				cost := out
				if joinIndexAvailable(c, plan.scans, plan.edges, adj, chosen) {
					cost *= 0.9
				}
				if next < 0 || cost < bestCost || (cost == bestCost && est[c] < est[next]) {
					next, bestCost = c, cost
				}
			}
			if next < 0 {
				// Nothing left is connected: the smallest scan attaches
				// cartesian, keeping the product cheap.
				for c := 0; c < n; c++ {
					if !chosen[c] && (next < 0 || est[c] < est[next]) {
						next = c
					}
				}
			}
		}

		// Hash condition: the first unused ON edge linking next to the
		// prefix (clause order, matching deriveSteps). None makes this a
		// cartesian step: both sides key on the constant (column -1), and
		// only a first join, whose prefix is the seed, needs pScan.
		nextCol, pScan, pCol := -1, seed, -1
		he := -1
		for ei, ed := range plan.edges {
			if usedEdge[ei] {
				continue
			}
			if ed.a == next && chosen[ed.b] {
				he, nextCol, pScan, pCol = ei, ed.aCol, ed.b, ed.bCol
				break
			}
			if ed.b == next && chosen[ed.a] {
				he, nextCol, pScan, pCol = ei, ed.bCol, ed.a, ed.aCol
				break
			}
		}

		// Side choice: the smaller (estimated, or exact for the
		// materialised prefix) side builds.
		buildNext := est[next] < curEst
		if acfg.Disabled {
			buildNext = !plan.steps[attached-1].buildLeft
		}

		// Build one side; the other becomes the probe stream.
		var ps probeStage
		if cur == nil {
			// First join: both sides are base scans.
			bScan, prScan, bCol, prCol := next, pScan, nextCol, pCol
			if !buildNext {
				bScan, prScan, bCol, prCol = pScan, next, pCol, nextCol
			}
			b, pr := plan.scans[bScan].ref.Binding(), plan.scans[prScan].ref.Binding()
			if rep.Adaptive.InitialBuild == "" {
				rep.Adaptive.InitialBuild = b
				rep.Adaptive.EstimatedBuildRows = est[bScan]
			}
			if _, err := src(bScan); err != nil {
				return nil, err
			}
			bt, err := e.stagedBuild(plan, span, srcs, bCol, bScan, est, buildCfg, acfg, rep)
			if err != nil {
				return nil, err
			}
			if bt != nil {
				psrc, err := src(prScan)
				if err != nil {
					return nil, err
				}
				rep.Adaptive.FinalBuild = b
				ps = probeStage{table: bt, src: psrc, col: prCol, build: []int{bScan}, probe: []int{prScan}}
			} else {
				if ps, err = e.indexNLStage(plan, srcs[bScan], bScan, bCol, prScan, prCol, acfg); err != nil {
					return nil, err
				}
				if ps.table == nil {
					// Nothing is materialised yet, so even the seed can move:
					// re-pick the cheapest scan under the corrected estimates.
					// (stagedBuild chained the aborted prefix back, so every
					// scan is still fully replayable.)
					for i := range est {
						if est[i] < est[seed] {
							chosen[seed] = false
							seed = i
							chosen[seed] = true
						}
					}
					continue // re-route with the corrected estimate
				}
				rep.Adaptive.UsedIndex = true
				rep.Adaptive.FinalBuild = pr
				span.Emit(e.clock(), trace.KindReoptimize, "linked IndexNLJoin(%s) into the pipeline", pr)
			}
			rep.Adaptive.ExecutedOrder = append(rep.Adaptive.ExecutedOrder, b, pr)
		} else if buildNext {
			if _, err := src(next); err != nil {
				return nil, err
			}
			bt, err := e.stagedBuild(plan, span, srcs, nextCol, next, est, buildCfg, acfg, rep)
			if err != nil {
				return nil, err
			}
			if bt == nil {
				continue
			}
			rep.Adaptive.ExecutedOrder = append(rep.Adaptive.ExecutedOrder, plan.scans[next].ref.Binding())
			ps = probeStage{table: bt, src: operators.NewSliceBatches(cur, buildBatch),
				col: posIn(plan, layout, pScan, pCol), build: []int{next}, probe: layout}
		} else {
			// The materialised prefix builds: its cardinality is exact,
			// so no safe point is needed.
			bt, _, err := operators.ParallelBuildBatches(
				operators.NewSliceBatches(cur, buildBatch), posIn(plan, layout, pScan, pCol), buildCfg, nil)
			if err != nil {
				return nil, err
			}
			rep.Adaptive.PeakHashRows = max(rep.Adaptive.PeakHashRows, bt.Rows())
			psrc, err := src(next)
			if err != nil {
				return nil, err
			}
			rep.Adaptive.ExecutedOrder = append(rep.Adaptive.ExecutedOrder, plan.scans[next].ref.Binding())
			ps = probeStage{table: bt, src: psrc, col: nextCol, build: layout, probe: []int{next}}
		}
		if he >= 0 {
			usedEdge[he] = true
		}
		chosen[next] = true
		attached++

		// Residual ON equalities now fully covered by the two sides are
		// checked on each match before the sink sees it.
		for ei, red := range plan.edges {
			if usedEdge[ei] || !chosen[red.a] || !chosen[red.b] {
				continue
			}
			usedEdge[ei] = true
			ps.on = append(ps.on, operators.PairEq{
				A: plan.pairCol(ps, red.a, red.aCol), B: plan.pairCol(ps, red.b, red.bCol)})
		}
		if attached == n {
			return e.probeTail(plan, tail, ps, cfg)
		}
		var err error
		if cur, err = ps.table.ProbeProject(ps.src, ps.col, cfg, ps.on, nil); err != nil {
			return nil, err
		}
		// A whole match is (build, probe).
		layout = append(append([]int(nil), ps.build...), ps.probe...)
		if len(cur) == 0 {
			// Inner joins only: an empty prefix ends the query. The tail
			// still runs (a global aggregate emits its one row).
			return e.scanTail(plan, tail, operators.NewSliceBatches(nil, 0), cfg)
		}
	}
}

// indexNLStage is the PreferIndex move after the first join's build of
// scan b aborted: when the other scan has an index on its join column
// and no pushed-down predicate, replay — the consumed prefix chained onto
// the remainder of b — streams through an index nested-loop join instead
// of waiting for a hash build of the other side. The joined rows (b's
// columns, then the indexed table's) reach the sinks as the probe side of
// a one-row, zero-column build table, so the stage is a probeStage like
// any other. A zero stage means the move does not apply.
func (e *Engine) indexNLStage(plan *selectPlan, replay operators.BatchSource, b, bCol, inner, innerCol int,
	acfg AdaptiveConfig) (probeStage, error) {
	in := plan.scans[inner]
	if !acfg.PreferIndex || innerCol < 0 || len(in.preds) > 0 {
		return probeStage{}, nil
	}
	idx, ok := in.table.Index(in.sch[innerCol].Name)
	if !ok {
		return probeStage{}, nil
	}
	unit, _, err := operators.ParallelBuildBatches(
		operators.NewSliceBatches([]storage.Tuple{{}}, 1), -1, operators.ParallelConfig{Workers: 1}, nil)
	if err != nil {
		return probeStage{}, err
	}
	nl := operators.NewIndexNLJoin(replay, bCol, idx, in.reader)
	return probeStage{table: unit, src: nl, col: -1, probe: []int{b, inner}}, nil
}

// stagedBuild runs one safe-pointed hash build of scan b from srcs[b].
// On a cardinality violation it corrects est[b], chains the consumed
// prefix back in front of srcs[b], emits the safe point that tripped,
// the violation and the re-route as trace events and returns a nil
// table — the caller re-routes. On success it returns the build table
// and traces nothing: the log records decisions, not progress.
func (e *Engine) stagedBuild(plan *selectPlan, span *trace.Span, srcs []operators.BatchSource,
	bCol, b int, est []float64, buildCfg operators.ParallelConfig, acfg AdaptiveConfig,
	rep *ExecReport) (*operators.BuildTable, error) {
	var safePoint func(int) bool
	if !acfg.Disabled {
		limit := acfg.Theta * est[b]
		safePoint = func(rows int) bool {
			if float64(rows) <= limit {
				return true
			}
			span.Emit(e.clock(), trace.KindSafePoint,
				"build safe point at %d rows (est %.0f)", rows, est[b])
			return false
		}
	}
	bt, prefix, err := operators.ParallelBuildBatches(srcs[b], bCol, buildCfg, safePoint)
	if err == nil {
		rep.Adaptive.PeakHashRows = max(rep.Adaptive.PeakHashRows, bt.Rows())
		return bt, nil
	}
	if !errors.Is(err, operators.ErrBuildAborted) {
		return nil, err
	}
	if !rep.Adaptive.Replanned {
		rep.Adaptive.Replanned = true
		rep.Adaptive.TriggerRow = len(prefix)
	}
	rep.Adaptive.Replans++
	rep.Adaptive.PeakHashRows = max(rep.Adaptive.PeakHashRows, len(prefix))
	span.Emit(e.clock(), trace.KindViolation,
		"cardinality misestimate: %s build hit %d rows vs est %.0f (θ=%.1f); workers drained at barrier",
		plan.scans[b].ref.Binding(), len(prefix), est[b], acfg.Theta)
	est[b] = max(est[b]*acfg.Theta, float64(len(prefix)))
	srcs[b] = operators.NewChainBatches(operators.NewSliceBatches(prefix, buildCfg.MorselSize), srcs[b])
	span.Emit(e.clock(), trace.KindReoptimize,
		"re-routing remaining joins: %s estimate corrected to %.0f",
		plan.scans[b].ref.Binding(), est[b])
	return nil, nil
}

// posIn locates scan-local column col of scan in the intermediate
// tuple described by layout; the constant key (col < 0) has no position.
func posIn(plan *selectPlan, layout []int, scan, col int) int {
	if col < 0 {
		return -1
	}
	o := 0
	for _, si := range layout {
		if si == scan {
			return o + col
		}
		o += len(plan.scans[si].sch)
	}
	return -1
}
