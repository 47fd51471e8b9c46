package query

import (
	"errors"
	"fmt"
	"strings"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// Engine executes SQL against a catalog.
type Engine struct {
	cat   *Catalog
	log   *trace.Log
	clock func() float64
}

// NewEngine builds an engine; log/clock may be nil.
func NewEngine(cat *Catalog, log *trace.Log, clock func() float64) *Engine {
	if log == nil {
		log = trace.New()
	}
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	return &Engine{cat: cat, log: log, clock: clock}
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *Catalog { return e.cat }

// Trace returns the engine's event log (panic containment and page
// corruption surface here).
func (e *Engine) Trace() *trace.Log { return e.log }

// Result is a query result.
type Result struct {
	Cols []string
	Rows []storage.Tuple
	// Affected counts DML rows.
	Affected int
	// Plan is the executed plan: a SELECT's EXPLAIN rendering, or the
	// access path an UPDATE/DELETE chose its rows through.
	Plan string
}

// Exec parses and executes one statement with one worker, in a
// transaction of its own (see ExecuteStmt).
func (e *Engine) Exec(sql string) (*Result, error) {
	res, _, err := e.ExecuteSQL(sql, ExecOptions{Workers: 1})
	return res, err
}

// MustExec panics on error (fixtures/benches).
func (e *Engine) MustExec(sql string) *Result {
	r, err := e.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", sql, err))
	}
	return r
}

// ExecStmt is Exec over a pre-parsed statement.
func (e *Engine) ExecStmt(st Stmt) (*Result, error) {
	res, _, err := e.ExecuteStmt(st, ExecOptions{Workers: 1})
	return res, err
}

// ExecuteSQL parses sql and runs it through ExecuteStmt.
func (e *Engine) ExecuteSQL(sql string, opts ExecOptions) (*Result, *ExecReport, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return e.ExecuteStmt(st, opts)
}

// ExecuteStmt executes one parsed statement: the engine's single entry
// point — Exec, MustExec, ExecStmt and ExecuteSQL only parse and fill in
// options. Every statement but DDL runs in a transaction: opts.Txn when
// set (reads see its snapshot, writes stamp its id and become visible
// at its Commit), else one of its own (autocommit). DDL (CREATE
// TABLE/INDEX, ANALYZE) runs outside every transaction and is rejected
// inside one: catalog changes are not versioned, so they could be
// neither rolled back nor hidden from concurrent snapshots. UPDATE and
// DELETE choose their rows as a SELECT would (execDML) and honour
// opts.Cancel while they choose and while they claim. A DML statement
// that fails undoes its own writes and no others, so a failure inside
// opts.Txn leaves that transaction as the statement found it.
//
// The SELECT contract, whatever the caller and the options: every
// SELECT runs on the one adaptive pipeline (routing.go) at opts.Workers
// workers — inline on the calling goroutine at one, and always inline
// for a bare index scan with no aggregate or ORDER BY, whose postings
// rarely outlast the first claim. Scans read through opts.Txn's
// snapshot. opts.Cancel is polled between batches and
// opts.MemBudget meters what the statement materialises; either cancels
// it cooperatively and surfaces as its error. A worker panic is
// contained: the statement re-runs once at one worker with adaptation
// off, and a second panic is its error (runSelect), as is the first once
// a row has left for opts.Sink. Rows leave before autocommit commits: a
// read transaction commits without writing, so that cannot fail. The
// result is the same multiset at every worker count, batch size and
// adaptation setting; row order is unspecified without ORDER BY, and
// with ORDER BY it is one total order (ties break on the row's content).
func (e *Engine) ExecuteStmt(st Stmt, opts ExecOptions) (*Result, *ExecReport, error) {
	if opts.Txn == nil && transactional(st) {
		return e.autocommit(st, opts)
	}
	if sel, ok := st.(*SelectStmt); ok {
		return e.runSelect(sel, opts)
	}
	res, err := e.execOther(st, opts)
	return res, &ExecReport{}, err
}

// transactional reports whether st runs inside a transaction: all but
// DDL and transaction control (which a session handles).
func transactional(st Stmt) bool {
	switch st.(type) {
	case *CreateTableStmt, *CreateIndexStmt, *AnalyzeStmt, *BeginStmt, *CommitStmt, *RollbackStmt:
		return false
	}
	return true
}

// autocommit runs st in a transaction of its own: a read (SELECT,
// EXPLAIN) under its own snapshot, so it cannot see other sessions'
// uncommitted writes, and committed for free (a transaction that wrote
// nothing draws no id and logs nothing); DML committed through the
// group-commit path, so concurrent autocommit sessions share fsyncs. A
// failed statement rolls back.
func (e *Engine) autocommit(st Stmt, opts ExecOptions) (*Result, *ExecReport, error) {
	txn := e.cat.db.Txns().Begin()
	opts.Txn = txn
	res, rep, err := e.ExecuteStmt(st, opts)
	if err != nil {
		return nil, rep, errors.Join(err, txn.Rollback())
	}
	return res, rep, txn.Commit()
}

// execOther executes every statement kind but SELECT.
func (e *Engine) execOther(st Stmt, opts ExecOptions) (*Result, error) {
	txn := opts.Txn
	switch s := st.(type) {
	case *InsertStmt, *UpdateStmt, *DeleteStmt:
		// A statement-level savepoint: a failure undoes this statement's
		// writes only. A write conflict dooms the whole transaction, but
		// that is the session's to abort.
		sp := txn.Savepoint()
		res, err := e.execWrite(s, opts)
		if err != nil {
			return nil, errors.Join(err, txn.RollbackTo(sp))
		}
		return res, nil
	case *CreateTableStmt:
		if txn != nil {
			return nil, fmt.Errorf("query: CREATE TABLE is not allowed inside a transaction")
		}
		if _, err := e.cat.CreateTable(s.Name, s.Cols); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndexStmt:
		if txn != nil {
			return nil, fmt.Errorf("query: CREATE INDEX is not allowed inside a transaction")
		}
		if _, err := e.cat.CreateIndex(s.Table, s.Col); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *AnalyzeStmt:
		if txn != nil {
			return nil, fmt.Errorf("query: ANALYZE is not allowed inside a transaction")
		}
		if err := e.cat.Analyze(s.Table); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *ExplainStmt:
		plan, err := e.planSelect(s.Select, txn)
		if err != nil {
			return nil, err
		}
		text := plan.Explain()
		// Render each scan's filter strategy (kernel conjuncts, boxed
		// residual). The kernels compile here solely for the rendering;
		// prune counters read 0/0 since nothing executed.
		for _, sp := range plan.scans {
			if sp.indexCol == "" && len(sp.preds) > 0 && !sp.noKernel {
				if _, err := sp.filterKernel(); err != nil {
					return nil, err
				}
			}
			if fs := sp.filterSummary(); fs != "" {
				text += " | " + fs
			}
		}
		return &Result{
			Cols: []string{"plan"},
			Rows: []storage.Tuple{{storage.StringValue(text)}},
			Plan: text,
		}, nil
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return nil, fmt.Errorf("query: %s requires a session (use session.DBSession)", stmtKeyword(st))
	}
	return nil, fmt.Errorf("query: unsupported statement %T", st)
}

// execWrite executes one INSERT, UPDATE or DELETE inside opts.Txn.
func (e *Engine) execWrite(st Stmt, opts ExecOptions) (*Result, error) {
	txn := opts.Txn
	if opts.Cancel == nil {
		opts.Cancel = noCancel
	}
	switch s := st.(type) {
	case *InsertStmt:
		for _, row := range s.Rows {
			tuple := make(storage.Tuple, len(row))
			copy(tuple, row)
			if _, err := e.cat.InsertTxn(s.Table, tuple, txn); err != nil {
				return nil, err
			}
		}
		return &Result{Affected: len(s.Rows)}, nil
	case *UpdateStmt:
		return e.execDML("Update", s.Table, s.Where, opts, func(vs []victim) (int, error) {
			return e.cat.update(s.Table, vs, s.Set, txn, opts.Cancel)
		})
	case *DeleteStmt:
		return e.execDML("Delete", s.Table, s.Where, opts, func(vs []victim) (int, error) {
			return e.cat.delete(s.Table, vs, txn, opts.Cancel)
		})
	}
	return nil, fmt.Errorf("query: %T is not a write", st)
}

// noCancel is the Cancel hook of a statement that has none.
func noCancel() error { return nil }

// stmtKeyword names a transaction-control statement for errors.
func stmtKeyword(st Stmt) string {
	switch st.(type) {
	case *BeginStmt:
		return "BEGIN"
	case *CommitStmt:
		return "COMMIT"
	case *RollbackStmt:
		return "ROLLBACK"
	}
	return fmt.Sprintf("%T", st)
}

// execDML runs an UPDATE or DELETE. Which rows it hits is a read under
// the statement's snapshot, so it is planned as the single-table SELECT
// over the same WHERE would be (DESIGN.md, "DML row selection") and
// collected completely before apply claims the first row: the statement
// never meets a version it wrote itself (the Halloween problem).
// opts.Cancel is polled while collecting and between claims.
func (e *Engine) execDML(verb, table string, where []Pred, opts ExecOptions,
	apply func([]victim) (int, error)) (*Result, error) {
	plan, err := e.planSelect(&SelectStmt{From: TableRef{Name: table}, Where: where, Limit: -1}, opts.Txn)
	if err != nil {
		return nil, err
	}
	sp := plan.scans[0]
	sp.noKernel = opts.NoVectorKernels
	victims, err := sp.victims(opts.Cancel)
	if err != nil {
		return nil, err
	}
	n, err := apply(victims)
	if err != nil {
		return nil, err
	}
	text := fmt.Sprintf("%s(%s) <- %s", verb, table, sp.explain())
	if fs := sp.filterSummary(); fs != "" {
		text += " | " + fs
	}
	return &Result{Affected: n, Plan: text}, nil
}

// projectionCols resolves the select list of a non-aggregate SELECT to
// column indexes and output names, for compileTail.
func projectionCols(st *SelectStmt, sch schema) ([]int, []string, error) {
	cols := make([]int, 0, len(st.Items))
	names := make([]string, 0, len(st.Items))
	for _, item := range st.Items {
		if item.Star {
			for i := range sch {
				cols = append(cols, i)
				names = append(names, sch[i].Name)
			}
			continue
		}
		idx, err := sch.resolve(item.Col)
		if err != nil {
			return nil, nil, err
		}
		cols = append(cols, idx)
		names = append(names, sch[idx].Name)
	}
	return cols, names, nil
}

// aggPlan is the compiled aggregate clause: the grouping column, the
// aggregate specs, and the re-projection from the internal [group?,
// aggs...] layout back to select-item order.
type aggPlan struct {
	groupCol int
	specs    []operators.AggSpec
	perm     []int
	outCols  []string
	outSch   schema
}

// compileAggregate validates the select items against the GROUP BY
// clause and produces an aggPlan.
func compileAggregate(st *SelectStmt, sch schema) (*aggPlan, error) {
	groupCol := -1
	if st.GroupBy != nil {
		idx, err := sch.resolve(*st.GroupBy)
		if err != nil {
			return nil, err
		}
		groupCol = idx
	}
	var specs []operators.AggSpec
	type itemSlot struct {
		isGroup bool
		aggIdx  int
		name    string
	}
	var slots []itemSlot
	for _, item := range st.Items {
		if item.Star {
			return nil, fmt.Errorf("query: SELECT * cannot mix with aggregates")
		}
		if item.Agg == AggNone {
			if st.GroupBy == nil || !strings.EqualFold(item.Col.Col, st.GroupBy.Col) {
				return nil, fmt.Errorf("query: non-aggregated column %s outside GROUP BY", item.Col)
			}
			slots = append(slots, itemSlot{isGroup: true, name: item.Col.Col})
			continue
		}
		var kind operators.AggKind
		switch item.Agg {
		case AggCount:
			kind = operators.AggCount
		case AggSum:
			kind = operators.AggSum
		case AggAvg:
			kind = operators.AggAvg
		case AggMin:
			kind = operators.AggMin
		case AggMax:
			kind = operators.AggMax
		}
		col := 0
		if !item.AggStar {
			idx, err := sch.resolve(item.Col)
			if err != nil {
				return nil, err
			}
			col = idx
		}
		name := strings.ToLower(string(item.Agg))
		if item.AggStar {
			name += "(*)"
		} else {
			name += "(" + item.Col.Col + ")"
		}
		slots = append(slots, itemSlot{aggIdx: len(specs), name: name})
		specs = append(specs, operators.AggSpec{Kind: kind, Col: col, NonNull: kind == operators.AggCount && !item.AggStar})
	}
	// Internal layout: [group?] + aggs; re-project to item order.
	base := 0
	if groupCol >= 0 {
		base = 1
	}
	p := &aggPlan{groupCol: groupCol, specs: specs, outSch: schema{}}
	for _, s := range slots {
		if s.isGroup {
			p.perm = append(p.perm, 0)
		} else {
			p.perm = append(p.perm, base+s.aggIdx)
		}
		p.outCols = append(p.outCols, s.name)
		p.outSch = append(p.outSch, boundCol{Name: s.name})
	}
	return p, nil
}
