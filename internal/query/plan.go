package query

import (
	"fmt"
	"math"
	"strings"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
)

// boundCol is one column of a plan node's output schema, qualified by
// the table binding (alias or table name) it came from.
type boundCol struct {
	Binding string
	Name    string
	Type    ColumnType
}

// schema is an ordered column list with resolution helpers.
type schema []boundCol

// resolve finds the position of a column reference. Unqualified names
// must be unambiguous.
func (s schema) resolve(c ColRef) (int, error) {
	found := -1
	for i, bc := range s {
		if !strings.EqualFold(bc.Name, c.Col) {
			continue
		}
		if c.Table != "" && !strings.EqualFold(bc.Binding, c.Table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("%w: ambiguous column %s", ErrNoColumn, c)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("%w: %s", ErrNoColumn, c)
	}
	return found, nil
}

// tableSchema builds the schema of one bound table.
func tableSchema(binding string, t *Table) schema {
	out := make(schema, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = boundCol{Binding: binding, Name: c.Name, Type: c.Type}
	}
	return out
}

// scanPlan is a base-table access path: heap or index scan plus
// residual filters.
type scanPlan struct {
	ref   TableRef
	table *Table
	sch   schema
	// reader is the heap surface every scan operator of this plan
	// consumes: the statement's transaction's view, which judges each
	// version against its snapshot. Binding it at plan time is the
	// whole of MVCC's read-side integration — the serial, batch and
	// morsel pipelines downstream are unchanged.
	reader   *storage.HeapView
	preds    []Pred // pushed-down single-table predicates
	indexCol string // non-empty when an index path was chosen
	indexLo  storage.Value
	indexHi  storage.Value
	estRows  float64
	// declPos is the scan's position in FROM-clause declaration order;
	// the plan's scan list itself is in join order.
	declPos int
	// stats is the table's statistics snapshot, taken once at plan time
	// so the greedy ordering loop reads distinct counts without
	// re-snapshotting per candidate.
	stats TableStats
	// noKernel forces the boxed per-row predicate
	// (ExecOptions.NoVectorKernels): no filter kernel, no zone-summary
	// veto.
	noKernel bool
	// kern is the compiled filter kernel, built lazily by filterKernel
	// before the pipeline fans out and then shared by all its workers.
	kern      *operators.FilterKernel
	kernBoxed []Pred // conjuncts the kernel left to the boxed residual
	scanStats *operators.ScanStats
}

// explain renders the access path.
func (s *scanPlan) explain() string {
	if s.indexCol != "" {
		return fmt.Sprintf("IndexScan(%s.%s est=%.0f)", s.ref.Binding(), s.indexCol, s.estRows)
	}
	return fmt.Sprintf("SeqScan(%s est=%.0f)", s.ref.Binding(), s.estRows)
}

// distinctOn returns the statistics' distinct count for one of the
// scan's columns (0 = unknown).
func (s *scanPlan) distinctOn(col int) int {
	return s.stats.Distinct[strings.ToLower(s.sch[col].Name)]
}

// victims collects the rows a DML statement will change, with their
// RIDs, from the source a SELECT over the same WHERE would scan (kernel,
// page verdict and boxed residual included) at one worker. Index
// entries cover every version of a row: the index scan fetches each
// through the reader (one outside the snapshot reads as not found) and
// every predicate is re-checked on the result. The heap scan hands over
// a page's tuples and RIDs from one image of it. cancel is polled per
// batch.
func (s *scanPlan) victims(cancel func() error) ([]victim, error) {
	src, err := scanBatches(s, 0, true)
	if err != nil {
		return nil, err
	}
	b := operators.GetBatch() // page buffers whose capacity outlives the statement
	defer operators.PutBatch(b)
	var out []victim
	for {
		if err := cancel(); err != nil {
			return nil, err
		}
		n, err := src.NextBatch(b)
		if err != nil || n == 0 {
			return out, err
		}
		for i, t := range b.Tuples {
			out = append(out, victim{rid: b.RIDs[i], row: t})
		}
	}
}

// filterKernel lazily compiles the scan's pushed-down conjunction into
// a shared FilterKernel. Called from single-threaded plan/build code
// before any pipeline fans out; the kernel itself is then
// worker-shared. Conjuncts the kernel cannot cover stay behind the
// boxed residual predicate, preserving exact semantics.
func (s *scanPlan) filterKernel() (*operators.FilterKernel, error) {
	if s.kern != nil {
		return s.kern, nil
	}
	cols, residual, err := compileKernelPreds(s.sch, s.preds)
	if err != nil {
		return nil, err
	}
	var boxed operators.Predicate
	if len(residual) > 0 {
		if boxed, err = compilePreds(s.sch, residual); err != nil {
			return nil, err
		}
	}
	s.scanStats = &operators.ScanStats{}
	s.kern = operators.NewFilterKernel(cols, boxed, s.scanStats)
	s.kernBoxed = residual
	return s.kern, nil
}

// kernelOps maps the comparison grammar onto kernel operators.
var kernelOps = map[CmpOp]operators.KernelOp{
	OpEQ: operators.KernEQ, OpNE: operators.KernNE,
	OpLT: operators.KernLT, OpGT: operators.KernGT,
	OpLE: operators.KernLE, OpGE: operators.KernGE,
	OpIsNull: operators.KernIsNull, OpNotNull: operators.KernNotNull,
}

// compileKernelPreds splits a conjunction into kernel-compilable
// column predicates and a boxed residual. The current grammar (col op
// literal, col IS [NOT] NULL) compiles entirely; the residual path
// exists so richer predicates can join the conjunction without
// touching the kernel.
func compileKernelPreds(sch schema, preds []Pred) ([]operators.ColPred, []Pred, error) {
	var cols []operators.ColPred
	var residual []Pred
	for _, p := range preds {
		i, err := sch.resolve(p.Col)
		if err != nil {
			return nil, nil, err
		}
		op, ok := kernelOps[p.Op]
		if !ok {
			residual = append(residual, p)
			continue
		}
		cols = append(cols, operators.ColPred{Col: i, Op: op, Lit: p.Lit, Name: p.String(), Cost: 1})
	}
	return cols, residual, nil
}

// filterSummary renders the scan's filter strategy for EXPLAIN: the
// prune counters plus each conjunct, tagged kernel or boxed. Empty for
// unfiltered or index-served scans.
func (s *scanPlan) filterSummary() string {
	if len(s.preds) == 0 || s.indexCol != "" {
		return ""
	}
	if s.kern == nil {
		names := make([]string, len(s.preds))
		for i, p := range s.preds {
			names[i] = p.String()
		}
		return fmt.Sprintf("filter(%s): boxed[%s]", s.ref.Binding(), strings.Join(names, " AND "))
	}
	out := fmt.Sprintf("filter(%s): %s %s", s.ref.Binding(), s.kern.PruneSummary(), s.kern.Describe())
	if len(s.kernBoxed) > 0 {
		names := make([]string, len(s.kernBoxed))
		for i, p := range s.kernBoxed {
			names[i] = p.String()
		}
		out += fmt.Sprintf(" boxed[%s]", strings.Join(names, " AND "))
	}
	return out
}

// compilePreds compiles a conjunction into a boxed tuple predicate —
// the reference semantics the vectorized kernel must reproduce
// byte-for-byte. NULL column values fail every conjunct except an
// explicit IS NULL test.
func compilePreds(sch schema, preds []Pred) (operators.Predicate, error) {
	type cp struct {
		idx int
		op  CmpOp
		lit storage.Value
	}
	var cps []cp
	for _, p := range preds {
		i, err := sch.resolve(p.Col)
		if err != nil {
			return nil, err
		}
		cps = append(cps, cp{idx: i, op: p.Op, lit: p.Lit})
	}
	return func(t storage.Tuple) bool {
		for _, c := range cps {
			switch c.op {
			case OpIsNull:
				if !t[c.idx].IsNull() {
					return false
				}
				continue
			case OpNotNull:
				if t[c.idx].IsNull() {
					return false
				}
				continue
			}
			if t[c.idx].IsNull() {
				return false
			}
			if !c.op.Eval(storage.Compare(t[c.idx], c.lit)) {
				return false
			}
		}
		return true
	}, nil
}

// estimate computes the optimiser's cardinality guess for a scan from
// the (possibly stale) statistics, read via snapshot so planning can
// race Analyze/SetStats without tearing.
func estimate(t *Table, preds []Pred) float64 {
	stats := t.StatsSnapshot()
	rows := float64(stats.Rows)
	if rows <= 0 {
		rows = 1 // unknown table: optimistic, per Scenario 3's setup
	}
	sel := 1.0
	for _, p := range preds {
		switch p.Op {
		case OpEQ:
			d := stats.Distinct[strings.ToLower(p.Col.Col)]
			if d <= 0 {
				d = 10
			}
			sel *= 1 / float64(d)
		case OpNE:
			// barely selective
		default:
			sel *= 1.0 / 3
		}
	}
	est := rows * sel
	if est < 1 {
		est = 1
	}
	return est
}

// JoinOrder selects the planner's join-ordering strategy.
type JoinOrder int

// Join-ordering strategies.
const (
	// JoinOrderGreedy (the default) orders joins greedily: start from
	// the smallest estimated scan, repeatedly attach the connected
	// neighbour with the cheapest estimated join output.
	JoinOrderGreedy JoinOrder = iota
	// JoinOrderDeclared compiles joins in FROM-clause declaration
	// order — the mis-ordered baseline for benchmarks and debugging.
	JoinOrderDeclared
)

// joinEdge is one resolved ON equality linking two scans. Scan
// indices refer to the plan's (join-ordered) scan list once planning
// has finished.
type joinEdge struct {
	a, b       int // scan indices
	aCol, bCol int // join-column positions local to each scan's schema
}

// joinStep attaches scans[i+1] to the joined prefix scans[0..i].
type joinStep struct {
	// buildLeft records whether the prefix side is the hash-build side.
	buildLeft bool
	// cross marks a cartesian attach: no ON edge connects the scan to
	// the prefix (last resort for disconnected join graphs).
	cross bool
	// estOut is the estimated prefix cardinality after this step.
	estOut float64
	// filters counts the residual ON equalities checked at this level.
	filters int
}

// selectPlan is the compiled plan of a SelectStmt. Scans are held in
// join order (greedy or declared); sch stays in declaration order.
type selectPlan struct {
	scans     []*scanPlan // in join order: scans[0] ⋈ scans[1] ⋈ ...
	steps     []joinStep  // steps[i] attaches scans[i+1]
	edges     []joinEdge  // resolved ON equalities (join-order index space)
	sch       schema      // declaration-order output schema
	stmt      *SelectStmt
	explainTx string
}

// Explain returns the plan rendering (tests assert on it).
func (p *selectPlan) Explain() string { return p.explainTx }

// planSelect compiles and optimises a SELECT statement with greedy
// join ordering, every scan bound to txn's snapshot.
func (e *Engine) planSelect(st *SelectStmt, txn *storage.Txn) (*selectPlan, error) {
	return e.planSelectOrder(st, txn, JoinOrderGreedy)
}

// planSelectOrder compiles and optimises a SELECT statement:
// single-table predicates are pushed to their scans (resolved against
// the full join schema, so cross-table ambiguity is an error, never a
// silent first-scan bind); each scan picks an index path when its
// predicates cover an indexed column; joins are ordered per mode and
// each picks its hash-build side by estimated cardinality.
func (e *Engine) planSelectOrder(st *SelectStmt, txn *storage.Txn, mode JoinOrder) (*selectPlan, error) {
	p := &selectPlan{stmt: st}
	scans := make([]*scanPlan, 0, 1+len(st.Joins))
	for i := 0; i <= len(st.Joins); i++ {
		ref := st.From
		if i > 0 {
			ref = st.Joins[i-1].Table
		}
		for _, prev := range scans {
			if strings.EqualFold(prev.ref.Binding(), ref.Binding()) {
				return nil, fmt.Errorf("query: duplicate table binding %q (alias each occurrence)", ref.Binding())
			}
		}
		t, err := e.cat.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		sp := &scanPlan{ref: ref, table: t, sch: tableSchema(ref.Binding(), t), reader: txn.View(t.Heap), declPos: i}
		scans = append(scans, sp)
		if i == 0 {
			p.sch = sp.sch // aliased: a single scan's plan needs no copy
		} else {
			p.sch = append(p.sch[:len(p.sch):len(p.sch)], sp.sch...)
		}
	}

	// owner maps a full-schema position back to its scan and column.
	owner := func(global int) (int, int) {
		i := 0
		for ; global >= len(scans[i].sch); i++ {
			global -= len(scans[i].sch)
		}
		return i, global
	}

	// Predicate pushdown: each WHERE conjunct references one column,
	// hence one table — but it must resolve against the full join
	// schema first, so a name present in two joined tables reports
	// ambiguity instead of silently binding to the first scan.
	for _, pred := range st.Where {
		global, err := p.sch.resolve(pred.Col)
		if err != nil {
			return nil, err
		}
		si, _ := owner(global)
		scans[si].preds = append(scans[si].preds, pred)
	}

	// Access-path selection + estimation.
	for _, sp := range scans {
		sp.stats = sp.table.StatsSnapshot()
		sp.estRows = estimate(sp.table, sp.preds)
		for _, pred := range sp.preds {
			if _, ok := sp.table.Index(pred.Col.Col); !ok {
				continue
			}
			if f, ok := pred.Lit.AsFloat(); ok && math.IsNaN(f) {
				continue // NaN compares equal to every number: no key range holds it
			}
			switch pred.Op {
			case OpEQ:
				sp.indexCol, sp.indexLo, sp.indexHi = strings.ToLower(pred.Col.Col), pred.Lit, pred.Lit
			case OpGT, OpGE:
				sp.indexCol, sp.indexLo, sp.indexHi = strings.ToLower(pred.Col.Col), pred.Lit, storage.StringValue(string(rune(0x10FFFF)))
			case OpLT, OpLE:
				sp.indexCol, sp.indexLo, sp.indexHi = strings.ToLower(pred.Col.Col), storage.NullValue(), pred.Lit
			}
			if sp.indexCol != "" {
				break
			}
		}
	}

	// Resolve each ON equality to a (scan, column) pair per side.
	// Resolution is against the full schema, so the clause may
	// reference any earlier (or later) binding and unqualified
	// ambiguity is caught here.
	edges := make([]joinEdge, 0, len(st.Joins))
	for _, j := range st.Joins {
		gl, err := p.sch.resolve(j.LCol)
		if err != nil {
			return nil, err
		}
		gr, err := p.sch.resolve(j.RCol)
		if err != nil {
			return nil, err
		}
		sa, ca := owner(gl)
		sb, cb := owner(gr)
		if sa == sb {
			return nil, fmt.Errorf("query: join %s = %s does not span two tables", j.LCol, j.RCol)
		}
		edges = append(edges, joinEdge{a: sa, b: sb, aCol: ca, bCol: cb})
	}

	p.scans, p.edges = scans, edges
	if len(scans) == 1 {
		p.explainTx = scans[0].explain()
		return p, nil // no join order or steps
	}

	// Join ordering (declaration-order index space), then re-index the
	// scans and edges into join-order space.
	var order []int
	if mode == JoinOrderDeclared || len(scans) <= 2 && mode != JoinOrderGreedy {
		order = identityOrder(len(scans))
	} else {
		order = greedyJoinOrder(scans, edges, buildAdjacency(len(scans), edges))
	}
	joinIdx := make([]int, len(scans)) // decl idx -> join idx
	p.scans = make([]*scanPlan, len(scans))
	for ji, di := range order {
		p.scans[ji] = scans[di]
		joinIdx[di] = ji
	}
	for i := range p.edges {
		p.edges[i].a = joinIdx[p.edges[i].a]
		p.edges[i].b = joinIdx[p.edges[i].b]
	}

	p.steps = deriveSteps(p.scans, p.edges)

	// Explain text: the chosen join order with build sides and
	// per-scan/per-join estimates.
	parts := make([]string, 0, 2*len(p.scans))
	parts = append(parts, p.scans[0].explain())
	for i, stp := range p.steps {
		parts = append(parts, stp.explain(), p.scans[i+1].explain())
	}
	p.explainTx = strings.Join(parts, " -> ")
	return p, nil
}

// explain renders one join step.
func (s joinStep) explain() string {
	if s.cross {
		return fmt.Sprintf("CrossJoin(est=%.0f)", s.estOut)
	}
	side := "right"
	if s.buildLeft {
		side = "left"
	}
	if s.filters > 0 {
		return fmt.Sprintf("HashJoin(build=%s est=%.0f filters=%d)", side, s.estOut, s.filters)
	}
	return fmt.Sprintf("HashJoin(build=%s est=%.0f)", side, s.estOut)
}

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// buildAdjacency indexes edges by scan: adj[s] lists the edge indices
// touching scan s.
func buildAdjacency(n int, edges []joinEdge) [][]int {
	adj := make([][]int, n)
	for ei, ed := range edges {
		adj[ed.a] = append(adj[ed.a], ei)
		adj[ed.b] = append(adj[ed.b], ei)
	}
	return adj
}

// attachEst estimates the intermediate cardinality after attaching
// scan cand to the already-joined prefix: every ON equality linking
// cand to a prefix scan contributes 1/max(V(l), V(r)) selectivity
// (V = distinct count from the statistics snapshot, defaulting to 10
// when absent — the statistics-free fallback). The bool reports
// whether cand is connected to the prefix at all; when it is not, the
// returned estimate is the cartesian product. Shared by plan-time
// greedy ordering and the runtime routing decision, so both rank
// candidates identically.
func attachEst(curEst, candEst float64, cand int, scans []*scanPlan,
	edges []joinEdge, adj [][]int, inPrefix []bool) (float64, bool) {
	out := curEst * candEst
	connected := false
	for _, ei := range adj[cand] {
		ed := edges[ei]
		other, myCol, otherCol := ed.b, ed.aCol, ed.bCol
		if other == cand {
			other, myCol, otherCol = ed.a, ed.bCol, ed.aCol
		}
		if !inPrefix[other] {
			continue
		}
		connected = true
		d := scans[cand].distinctOn(myCol)
		if od := scans[other].distinctOn(otherCol); od > d {
			d = od
		}
		if d <= 0 {
			d = 10
		}
		out /= float64(d)
	}
	if out < 1 {
		out = 1
	}
	return out, connected
}

// joinIndexAvailable reports whether cand has a B-tree index on one of
// the join columns linking it to the prefix — a mild greedy preference
// (the index is an index-NL escape hatch for the runtime adapter and a
// sign the column is a key).
func joinIndexAvailable(cand int, scans []*scanPlan, edges []joinEdge,
	adj [][]int, inPrefix []bool) bool {
	for _, ei := range adj[cand] {
		ed := edges[ei]
		other, myCol := ed.b, ed.aCol
		if other == cand {
			other, myCol = ed.a, ed.bCol
		}
		if !inPrefix[other] {
			continue
		}
		if _, ok := scans[cand].table.Index(scans[cand].sch[myCol].Name); ok {
			return true
		}
	}
	return false
}

// greedyJoinOrder is the statistics-free greedy ordering: seed with
// the smallest estimated scan, then repeatedly attach the connected
// candidate with the cheapest estimated join output (index
// availability on the join column breaks near-ties). Cartesian
// attaches happen only when no remaining scan is connected. The loop
// is O(n² + n·e) with no maps and no per-iteration allocation.
func greedyJoinOrder(scans []*scanPlan, edges []joinEdge, adj [][]int) []int {
	n := len(scans)
	order := make([]int, 0, n)
	chosen := make([]bool, n)
	start := 0
	for i := 1; i < n; i++ {
		if scans[i].estRows < scans[start].estRows {
			start = i
		}
	}
	order = append(order, start)
	chosen[start] = true
	curEst := scans[start].estRows
	for len(order) < n {
		best := -1
		var bestCost, bestOut float64
		for c := 0; c < n; c++ {
			if chosen[c] {
				continue
			}
			out, conn := attachEst(curEst, scans[c].estRows, c, scans, edges, adj, chosen)
			if !conn {
				continue
			}
			cost := out
			if joinIndexAvailable(c, scans, edges, adj, chosen) {
				cost *= 0.9
			}
			if best < 0 || cost < bestCost ||
				(cost == bestCost && scans[c].estRows < scans[best].estRows) {
				best, bestCost, bestOut = c, cost, out
			}
		}
		if best < 0 {
			// Disconnected join graph: cartesian last resort, smallest
			// estimated scan first to keep the product cheap.
			for c := 0; c < n; c++ {
				if chosen[c] && best >= 0 {
					continue
				}
				if !chosen[c] && (best < 0 || scans[c].estRows < scans[best].estRows) {
					best = c
				}
			}
			bestOut = curEst * scans[best].estRows
		}
		chosen[best] = true
		order = append(order, best)
		curEst = bestOut
	}
	return order
}

// deriveSteps compiles the ordered scan list + edges into the static
// plan's left-deep steps: the first unused edge (in ON-clause order)
// linking the attached scan to the prefix is the hash condition; every
// other edge is a residual equality checked at the first level where
// both its scans are joined; a scan with no edge to the prefix attaches
// cartesian. EXPLAIN renders the steps, and the router follows them
// verbatim when adaptation is disabled.
func deriveSteps(scans []*scanPlan, edges []joinEdge) []joinStep {
	n := len(scans)
	if n <= 1 {
		return nil
	}
	adj := buildAdjacency(n, edges)
	used := make([]bool, len(edges))
	inPrefix := make([]bool, n)
	inPrefix[0] = true
	steps := make([]joinStep, 0, n-1)
	curEst := scans[0].estRows
	for i := 1; i < n; i++ {
		st := joinStep{cross: true}
		for ei, ed := range edges {
			if !used[ei] && (ed.a == i && inPrefix[ed.b] || ed.b == i && inPrefix[ed.a]) {
				st.cross, used[ei] = false, true
				break
			}
		}
		st.estOut, _ = attachEst(curEst, scans[i].estRows, i, scans, edges, adj, inPrefix)
		st.buildLeft = curEst <= scans[i].estRows
		inPrefix[i] = true
		for ei, ed := range edges {
			if !used[ei] && inPrefix[ed.a] && inPrefix[ed.b] {
				used[ei] = true
				st.filters++
			}
		}
		curEst = st.estOut
		steps = append(steps, st)
	}
	return steps
}
