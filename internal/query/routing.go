package query

import (
	"errors"
	"fmt"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// This file is the eddies-style staged router: the generalisation of
// the single-join safe-point swap to multi-join pipelines. The plan's
// join tree is not compiled into a fixed operator chain; instead the
// router materialises one hash join at a time and, before each one,
// re-decides which remaining scan to attach and which side builds,
// using live cardinality feedback:
//
//   - the joined prefix's cardinality is exact (it is materialised);
//   - every base-scan estimate starts from the optimiser's guess and
//     is corrected upward whenever a safe-point build abort proves it
//     low (est' = max(est·θ, observed)), so repeated misestimates
//     decay geometrically and the loop must terminate;
//   - candidate ranking reuses the planner's attachEst, so the router
//     and the greedy planner agree whenever the statistics were right.
//
// Determinism: a build abort drains every worker at the phase barrier
// and hands back the consumed prefix, which is re-chained in front of
// the untouched remainder of that scan's batch source — no tuple is
// lost or read twice, whatever the worker count or batch size. Join
// output is a set: routing order changes the column layout (the final
// probe maps declared columns onto whatever it turned out to be) and
// the row order (meaningless without ORDER BY, and ORDER BY has a
// total-order tie-break), never the result multiset.

// execStagedJoins executes a multi-join plan (all steps hash joins)
// with continuous safe-point adaptation. Every step but the last
// materialises its output — the router needs the exact cardinality to
// pick the next one; the last probes straight into the tail's sink
// (probeTail). rep.Adaptive is filled in; the caller decides
// Parallel/Workers.
func (e *Engine) execStagedJoins(plan *selectPlan, tail *selectTail, opts ExecOptions, rep *ExecReport) (*Result, error) {
	workers := opts.workers()
	batch := opts.batchSize()
	acfg := opts.adaptive()
	span := e.log.Span("query.routing")
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
	// Build batches are capped at the safe-point cadence; every scan
	// source uses that granularity so an aborted prefix re-chains onto
	// its source exactly.
	buildBatch := acfg.CheckEvery
	if batch > 0 && batch < buildBatch {
		buildBatch = batch
	}
	buildCfg := cfg
	buildCfg.MorselSize = buildBatch

	n := len(plan.scans)
	est := make([]float64, n) // live per-scan estimates, corrected on aborts
	for i, sp := range plan.scans {
		est[i] = sp.estRows
	}
	adj := buildAdjacency(n, plan.edges)
	srcs := make([]operators.BatchSource, n)
	src := func(i int) (operators.BatchSource, error) {
		if srcs[i] == nil {
			s, err := scanBatches(plan.scans[i], buildBatch)
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
	firstAttempt := true

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
				// Unreachable for plans without cross steps (the join
				// graph is connected), kept as a hard failure rather
				// than a silent cartesian product.
				return nil, fmt.Errorf("query: staged router: no connected join candidate")
			}
		}

		// Hash condition: the first unused ON edge linking next to the
		// prefix (clause order, matching deriveSteps).
		he := -1
		for ei, ed := range plan.edges {
			if usedEdge[ei] {
				continue
			}
			if (ed.a == next && chosen[ed.b]) || (ed.b == next && chosen[ed.a]) {
				he = ei
				break
			}
		}
		if he < 0 {
			return nil, fmt.Errorf("query: staged router: no join edge for %s",
				plan.scans[next].ref.Binding())
		}
		ed := plan.edges[he]
		nextCol, pScan, pCol := ed.aCol, ed.b, ed.bCol
		if ed.b == next {
			nextCol, pScan, pCol = ed.bCol, ed.a, ed.aCol
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
			if firstAttempt {
				rep.Adaptive.InitialBuild = plan.scans[bScan].ref.Binding()
				rep.Adaptive.EstimatedBuildRows = est[bScan]
				firstAttempt = false
			}
			bsrc, err := src(bScan)
			if err != nil {
				return nil, err
			}
			bt, prefix, err := e.stagedBuild(plan, span, bsrc, bCol, bScan, est, buildCfg, acfg, rep)
			if err != nil {
				return nil, err
			}
			if bt == nil {
				srcs[bScan] = operators.NewChainBatches(
					operators.NewSliceBatches(prefix, buildBatch), srcs[bScan])
				// Nothing is materialised yet, so even the seed can move:
				// re-pick the cheapest scan under the corrected estimates.
				// (The aborted prefix is chained back, so every scan is
				// still fully replayable.)
				for i := range est {
					if est[i] < est[seed] {
						chosen[seed] = false
						seed = i
						chosen[seed] = true
					}
				}
				continue // re-route with the corrected estimate
			}
			psrc, err := src(prScan)
			if err != nil {
				return nil, err
			}
			rep.Adaptive.FinalBuild = plan.scans[bScan].ref.Binding()
			rep.Adaptive.ExecutedOrder = append(rep.Adaptive.ExecutedOrder,
				plan.scans[bScan].ref.Binding(), plan.scans[prScan].ref.Binding())
			ps = probeStage{table: bt, src: psrc, col: prCol, build: []int{bScan}, probe: []int{prScan}}
		} else if buildNext {
			bsrc, err := src(next)
			if err != nil {
				return nil, err
			}
			bt, prefix, err := e.stagedBuild(plan, span, bsrc, nextCol, next, est, buildCfg, acfg, rep)
			if err != nil {
				return nil, err
			}
			if bt == nil {
				srcs[next] = operators.NewChainBatches(
					operators.NewSliceBatches(prefix, buildBatch), srcs[next])
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
			if bt.Rows() > rep.Adaptive.PeakHashRows {
				rep.Adaptive.PeakHashRows = bt.Rows()
			}
			psrc, err := src(next)
			if err != nil {
				return nil, err
			}
			rep.Adaptive.ExecutedOrder = append(rep.Adaptive.ExecutedOrder, plan.scans[next].ref.Binding())
			ps = probeStage{table: bt, src: psrc, col: nextCol, build: layout, probe: []int{next}}
		}
		usedEdge[he] = true
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

// stagedBuild runs one safe-pointed hash build for scan b. On a
// cardinality violation it corrects est[b], emits the violation /
// re-route trace events and returns (nil, consumedPrefix, nil) — the
// caller re-chains the prefix and re-routes. On success it returns the
// build table.
func (e *Engine) stagedBuild(plan *selectPlan, span *trace.Span, bsrc operators.BatchSource,
	bCol, b int, est []float64, buildCfg operators.ParallelConfig, acfg AdaptiveConfig,
	rep *ExecReport) (*operators.BuildTable, []storage.Tuple, error) {
	var safePoint func(int) bool
	if !acfg.Disabled {
		limit := acfg.Theta * est[b]
		safePoint = func(rows int) bool {
			span.Emit(e.clock(), trace.KindSafePoint,
				"build safe point at %d rows (est %.0f)", rows, est[b])
			return float64(rows) <= limit
		}
	}
	bt, prefix, err := operators.ParallelBuildBatches(bsrc, bCol, buildCfg, safePoint)
	switch {
	case err == nil:
		if bt.Rows() > rep.Adaptive.PeakHashRows {
			rep.Adaptive.PeakHashRows = bt.Rows()
		}
		return bt, prefix, nil
	case errors.Is(err, operators.ErrBuildAborted):
		if !rep.Adaptive.Replanned {
			rep.Adaptive.Replanned = true
			rep.Adaptive.TriggerRow = len(prefix)
		}
		rep.Adaptive.Replans++
		if len(prefix) > rep.Adaptive.PeakHashRows {
			rep.Adaptive.PeakHashRows = len(prefix)
		}
		span.Emit(e.clock(), trace.KindViolation,
			"cardinality misestimate: %s build hit %d rows vs est %.0f (θ=%.1f); workers drained at barrier",
			plan.scans[b].ref.Binding(), len(prefix), est[b], acfg.Theta)
		corrected := est[b] * acfg.Theta
		if float64(len(prefix)) > corrected {
			corrected = float64(len(prefix))
		}
		est[b] = corrected
		span.Emit(e.clock(), trace.KindReoptimize,
			"re-routing remaining joins: %s estimate corrected to %.0f",
			plan.scans[b].ref.Binding(), est[b])
		return nil, prefix, nil
	default:
		return nil, nil, err
	}
}

// posIn locates scan-local column col of scan in the intermediate
// tuple described by layout.
func posIn(plan *selectPlan, layout []int, scan, col int) int {
	o := 0
	for _, si := range layout {
		if si == scan {
			return o + col
		}
		o += len(plan.scans[si].sch)
	}
	return -1
}
