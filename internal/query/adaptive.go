package query

import (
	"errors"
	"fmt"
	"strings"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// This file implements Scenario 3 (intra-query adaptation): "the
// statistics provided by the metadata are not quite accurate enough
// for the pre-optimisor to build the optimal plan. It becomes obvious
// that the original cost calculations need revised ... The query plan
// is revised to perhaps change the join's inner-loop to the
// outer-loop or add an index to one of the tables. The components
// that carry out this are called upon and linked into the query
// pipeline at run-time."
//
// The executor runs the hash build with safe points every CheckEvery
// rows. When the observed build cardinality exceeds Theta × the
// optimiser's estimate, the build aborts at the safe point and the
// plan is revised: the join sides swap (the consumed build prefix is
// replayed as probe input, so no work is lost and no result is
// duplicated), or — when the revised build side has an index on the
// join column — an index nested-loop join is linked in instead.

// AdaptiveConfig tunes the mid-query re-optimiser.
type AdaptiveConfig struct {
	// Theta is the misestimate ratio that triggers replanning.
	Theta float64
	// CheckEvery is the safe-point cadence in build rows.
	CheckEvery int
	// PreferIndex lets the revised plan use an index nested-loop join
	// when the new inner table has an index on the join column.
	PreferIndex bool
	// Disabled turns safe-point adaptation off entirely: the executor
	// follows the static plan verbatim (no feedback, no replans). Used
	// by benchmarks to isolate plan-time ordering from runtime routing.
	Disabled bool
}

// DefaultAdaptiveConfig returns Theta=3, CheckEvery=64.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{Theta: 3, CheckEvery: 64}
}

// AdaptiveReport describes what the re-optimiser did.
type AdaptiveReport struct {
	Replanned bool
	// Replans counts safe-point plan revisions (the staged multi-join
	// router can revise more than once; the single-join path at most
	// once).
	Replans int
	// TriggerRow is the build row count at which the first violation
	// fired.
	TriggerRow int
	// EstimatedBuildRows is what the optimiser believed.
	EstimatedBuildRows float64
	// InitialBuild / FinalBuild name the build-side bindings (of the
	// first join the router executed, for multi-join plans).
	InitialBuild string
	FinalBuild   string
	// UsedIndex reports an index-NL join was linked in.
	UsedIndex bool
	// PeakHashRows is the largest hash table materialised across the
	// whole execution (memory proxy).
	PeakHashRows int
	// ExecutedOrder lists table bindings in the order the router
	// actually materialised them (empty when execution followed the
	// static plan trivially, e.g. join-free statements).
	ExecutedOrder []string
}

// Describe renders the post-execution adaptation summary appended to
// Explain output. Golden tests pin this format.
func (r *AdaptiveReport) Describe() string {
	if !r.Replanned {
		return "adapt: none"
	}
	s := fmt.Sprintf("adapt: replans=%d trigger=%d build=%s->%s",
		r.Replans, r.TriggerRow, r.InitialBuild, r.FinalBuild)
	if r.UsedIndex {
		s += " index-nl"
	}
	if len(r.ExecutedOrder) > 0 {
		s += " order=" + strings.Join(r.ExecutedOrder, ",")
	}
	return s
}

// ExecSelectAdaptive executes a SELECT with mid-query
// re-optimisation: the single-join safe-point swap, or the staged
// multi-join router for larger pipelines. Join-free and cartesian
// statements fall back to the static path (report.Replanned=false).
func (e *Engine) ExecSelectAdaptive(st *SelectStmt, cfg AdaptiveConfig) (*Result, *AdaptiveReport, error) {
	res, rep, err := e.execSelectAdaptiveRun(st, cfg)
	if err == nil && res != nil && rep != nil && rep.Replanned {
		// Post-execution adaptation summary: where the router fired.
		res.Plan += " | " + rep.Describe()
	}
	return res, rep, err
}

func (e *Engine) execSelectAdaptiveRun(st *SelectStmt, cfg AdaptiveConfig) (*Result, *AdaptiveReport, error) {
	if cfg.Theta <= 1 {
		cfg.Theta = 3
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 64
	}
	plan, err := e.planSelect(st, nil)
	if err != nil {
		return nil, nil, err
	}
	rep := &AdaptiveReport{}
	if cfg.Disabled {
		res, err := e.execSelect(st, nil)
		return res, rep, err
	}
	if len(plan.steps) >= 2 && !plan.hasCross() {
		// Multi-join: the staged router generalises the one-shot
		// side-swap into continuous safe-point adaptation. Run it
		// single-worker so this entry point stays serial.
		tail, err := compileTail(st, plan.sch)
		if err != nil {
			return nil, nil, err
		}
		rep2 := &ExecReport{}
		res, err := e.execStagedJoins(plan, &tail, ExecOptions{Workers: 1, Adaptive: &cfg}, rep2)
		if err != nil {
			return nil, nil, err
		}
		*rep = rep2.Adaptive
		return res, rep, nil
	}
	if len(plan.steps) != 1 || plan.steps[0].cross {
		res, err := e.execSelect(st, nil)
		return res, rep, err
	}

	sides, err := plan.singleJoinSides()
	if err != nil {
		return nil, nil, err
	}
	leftScan, rightScan := plan.scans[0], plan.scans[1]
	build, probe := sides.build, sides.probe
	buildCol, probeCol := sides.buildCol, sides.probeCol
	buildIsLeft := sides.buildIsLeft
	rep.InitialBuild = build.ref.Binding()
	rep.FinalBuild = build.ref.Binding()
	rep.EstimatedBuildRows = build.estRows

	// Run the build with safe points.
	buildIt, err := build.build()
	if err != nil {
		return nil, nil, err
	}
	if err := buildIt.Open(); err != nil {
		return nil, nil, err
	}
	var consumed []storage.Tuple
	limit := cfg.Theta * build.estRows
	violated := false
	for {
		t, ok, err := buildIt.Next()
		if err != nil {
			return nil, nil, errors.Join(err, buildIt.Close())
		}
		if !ok {
			break
		}
		consumed = append(consumed, t)
		if len(consumed)%cfg.CheckEvery == 0 {
			e.log.Emit(e.clock(), trace.KindSafePoint, "query",
				"build safe point at %d rows (est %.0f)", len(consumed), build.estRows)
			if float64(len(consumed)) > limit {
				violated = true
				break
			}
		}
	}

	if !violated {
		// Statistics held: finish the static plan, reusing the
		// materialised build side.
		if cerr := buildIt.Close(); cerr != nil {
			return nil, nil, cerr
		}
		join := operators.NewHashJoin(operators.NewMemScan(consumed), mustBuild(probe), buildCol, probeCol)
		rep.PeakHashRows = len(consumed)
		rep.ExecutedOrder = []string{build.ref.Binding(), probe.ref.Binding()}
		it := plan.toDecl(normalise(join, buildIsLeft, len(leftScan.sch), len(rightScan.sch)))
		res, err := e.finishSelect(plan, it)
		return res, rep, err
	}

	// Violation: revise the plan at the safe point.
	rep.Replanned = true
	rep.Replans = 1
	rep.TriggerRow = len(consumed)
	e.log.Emit(e.clock(), trace.KindViolation, "query",
		"cardinality misestimate: %s build hit %d rows vs est %.0f (θ=%.1f)",
		build.ref.Binding(), len(consumed), build.estRows, cfg.Theta)

	// The consumed prefix + the rest of the old build iterator become
	// the probe stream of the revised join; the old probe side becomes
	// the build. This is the inner↔outer swap — no tuple is read twice
	// from storage and no result can duplicate because nothing was
	// emitted during the build phase.
	restOld := &openedRest{it: buildIt}
	oldBuildStream := concatIter(operators.NewMemScan(consumed), restOld)

	newBuild := probe
	rep.FinalBuild = newBuild.ref.Binding()

	if cfg.PreferIndex {
		if idx, ok := newBuild.table.Index(joinColName(newBuild, plan)); ok && len(newBuild.preds) == 0 {
			// Index NL: outer = old build stream, inner = indexed table.
			rep.UsedIndex = true
			e.log.Emit(e.clock(), trace.KindReoptimize, "query",
				"linked IndexNLJoin(%s) into the pipeline", newBuild.ref.Binding())
			j := operators.NewIndexNLJoin(oldBuildStream, buildCol, idx, newBuild.table.Heap)
			// Output: (oldBuild, newBuild) = (build, probe) original order.
			it := plan.toDecl(normalise(j, buildIsLeft, len(leftScan.sch), len(rightScan.sch)))
			rep.PeakHashRows = len(consumed)
			rep.ExecutedOrder = []string{build.ref.Binding(), newBuild.ref.Binding()}
			res, err := e.finishSelect(plan, it)
			return res, rep, err
		}
	}

	e.log.Emit(e.clock(), trace.KindReoptimize, "query",
		"swapped join build side %s -> %s at row %d",
		rep.InitialBuild, rep.FinalBuild, rep.TriggerRow)
	join := operators.NewHashJoin(mustBuild(newBuild), oldBuildStream, probeCol, buildCol)
	rep.ExecutedOrder = []string{newBuild.ref.Binding(), build.ref.Binding()}
	// Output order is (newBuild, oldBuild) = (probe, build): flip of
	// the original build orientation.
	it := plan.toDecl(normalise(join, !buildIsLeft, len(leftScan.sch), len(rightScan.sch)))
	res, err := e.finishSelect(plan, it)
	if res != nil {
		// Peak memory: the aborted prefix plus the revised build table
		// (actual, observed at Open).
		rep.PeakHashRows = maxInt(len(consumed), join.BuildRows)
	}
	return res, rep, err
}

// joinSides is the resolved orientation of a single-join plan: which
// scan hash-builds and which probes (per the static optimiser's
// choice), with the join-column position local to each side. Shared by
// the serial adaptive executor and the parallel executor so both obey
// the same safe-point/replan geometry.
type joinSides struct {
	build, probe       *scanPlan
	buildCol, probeCol int // join-column positions in each side's own schema
	buildIsLeft        bool
}

// singleJoinSides resolves the orientation of a plan with exactly one
// hash-join step. The step's leftCol indexes the one-scan prefix, so
// it is already local to scans[0].
func (p *selectPlan) singleJoinSides() (*joinSides, error) {
	st := p.steps[0]
	if st.cross {
		return nil, fmt.Errorf("query: cartesian join has no hash sides")
	}
	leftScan, rightScan := p.scans[0], p.scans[1]
	s := &joinSides{build: leftScan, probe: rightScan,
		buildCol: st.leftCol, probeCol: st.rightCol, buildIsLeft: st.buildLeft}
	if !s.buildIsLeft {
		s.build, s.probe = rightScan, leftScan
		s.buildCol, s.probeCol = st.rightCol, st.leftCol
	}
	return s, nil
}

func joinColName(sp *scanPlan, plan *selectPlan) string {
	j := plan.stmt.Joins[0]
	// Return the join column belonging to sp's binding.
	if eqFold(j.LCol.Table, sp.ref.Binding()) {
		return j.LCol.Col
	}
	if eqFold(j.RCol.Table, sp.ref.Binding()) {
		return j.RCol.Col
	}
	// Unqualified: resolve within sp's schema.
	if _, err := sp.sch.resolve(j.LCol); err == nil {
		return j.LCol.Col
	}
	return j.RCol.Col
}

func eqFold(a, b string) bool {
	return a != "" && b != "" && len(a) == len(b) && (a == b || equalsIgnoreCase(a, b))
}

func equalsIgnoreCase(a, b string) bool {
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 32
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 32
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mustBuild compiles a scan; planSelect already validated it.
func mustBuild(sp *scanPlan) operators.Iterator {
	it, err := sp.build()
	if err != nil {
		panic(fmt.Sprintf("query: scan build: %v", err))
	}
	return it
}

// normalise restores declaration order (left, right) around a hash
// join whose build side was `buildLeft`.
func normalise(j operators.Iterator, buildLeft bool, leftW, rightW int) operators.Iterator {
	if buildLeft {
		return j
	}
	perm := make([]int, 0, leftW+rightW)
	for k := 0; k < leftW; k++ {
		perm = append(perm, rightW+k)
	}
	for k := 0; k < rightW; k++ {
		perm = append(perm, k)
	}
	return operators.NewProject(j, perm)
}

// openedRest adapts an already-open iterator to the Iterator
// interface (Open is a no-op; the underlying cursor continues).
type openedRest struct {
	it operators.Iterator
}

func (o *openedRest) Open() error { return nil }
func (o *openedRest) Next() (storage.Tuple, bool, error) {
	return o.it.Next()
}
func (o *openedRest) Close() error { return o.it.Close() }

// concatIter yields all of a, then all of b.
func concatIter(a, b operators.Iterator) operators.Iterator {
	return &concatIterator{a: a, b: b}
}

type concatIterator struct {
	a, b operators.Iterator
	onB  bool
	open bool
}

func (c *concatIterator) Open() error {
	c.onB = false
	c.open = true
	if err := c.a.Open(); err != nil {
		return err
	}
	return c.b.Open()
}

func (c *concatIterator) Next() (storage.Tuple, bool, error) {
	if !c.open {
		return nil, false, operators.ErrNotOpen
	}
	if !c.onB {
		t, ok, err := c.a.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return t, true, nil
		}
		c.onB = true
	}
	return c.b.Next()
}

func (c *concatIterator) Close() error {
	c.open = false
	return errors.Join(c.a.Close(), c.b.Close())
}
