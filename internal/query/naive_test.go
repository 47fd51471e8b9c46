package query

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

// This file is the differential tests' oracle: a naive SELECT
// evaluator written from the documented contract (the ExecuteStmt doc
// and DESIGN.md), sharing no execution code with the pipeline. It uses
// the parser, storage.Compare/Equal, CmpOp.Eval and the heap view, and
// nothing of the planner, the predicate compiler, the operators
// package's kernels, accumulators or comparators.

// refSelect evaluates sql naively under txn's snapshot (a nil txn reads
// under a snapshot of its own). It is the oracle of every differential
// test: Exec and MustExec run the pipeline, so an expectation taken
// from them would compare the pipeline with itself.
func refSelect(t *testing.T, e *Engine, sql string, txn *storage.Txn) *Result {
	t.Helper()
	if txn == nil {
		txn = e.cat.db.Txns().Begin()
		defer txn.Rollback()
	}
	res, err := naiveSelect(e.cat, MustParse(sql).(*SelectStmt), txn)
	if err != nil {
		t.Fatalf("naive evaluator: %s: %v", sql, err)
	}
	return res
}

// naiveTable is one FROM/JOIN binding: its name, columns and the rows
// txn's snapshot sees.
type naiveTable struct {
	binding string
	cols    []Column
	rows    []storage.Tuple
}

// naiveCol locates a column: table (in declaration order) and position.
type naiveCol struct{ table, col int }

// naiveConjunct is one ON equality or WHERE predicate, applied as soon
// as the last table it names is bound.
type naiveConjunct struct {
	last int
	keep func(bound []storage.Tuple) bool
}

func naiveSelect(cat *Catalog, st *SelectStmt, txn *storage.Txn) (*Result, error) {
	refs := []TableRef{st.From}
	for _, j := range st.Joins {
		refs = append(refs, j.Table)
	}
	tables := make([]naiveTable, len(refs))
	for i, ref := range refs {
		tbl, err := cat.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		rows, err := txn.View(tbl.Heap).All()
		if err != nil {
			return nil, err
		}
		tables[i] = naiveTable{binding: ref.Binding(), cols: tbl.Cols, rows: rows}
	}
	resolve := func(c ColRef) (naiveCol, error) {
		found := naiveCol{table: -1}
		for ti, tb := range tables {
			if c.Table != "" && !strings.EqualFold(c.Table, tb.binding) {
				continue
			}
			for ci, col := range tb.cols {
				if strings.EqualFold(col.Name, c.Col) {
					if found.table >= 0 {
						return found, fmt.Errorf("ambiguous column %s", c)
					}
					found = naiveCol{ti, ci}
				}
			}
		}
		if found.table < 0 {
			return found, fmt.Errorf("no column %s", c)
		}
		return found, nil
	}

	var conj []naiveConjunct
	for _, j := range st.Joins {
		l, err := resolve(j.LCol)
		if err != nil {
			return nil, err
		}
		r, err := resolve(j.RCol)
		if err != nil {
			return nil, err
		}
		conj = append(conj, naiveConjunct{last: max(l.table, r.table), keep: func(b []storage.Tuple) bool {
			return joinsWith(b[l.table][l.col], b[r.table][r.col])
		}})
	}
	for _, p := range st.Where {
		c, err := resolve(p.Col)
		if err != nil {
			return nil, err
		}
		conj = append(conj, naiveConjunct{last: c.table, keep: func(b []storage.Tuple) bool {
			return satisfies(p, b[c.table][c.col])
		}})
	}

	// Nested loops in declaration order; a conjunct prunes as soon as
	// its last table is bound.
	var joined [][]storage.Tuple
	bound := make([]storage.Tuple, len(tables))
	var bind func(i int)
	bind = func(i int) {
		if i == len(tables) {
			joined = append(joined, append([]storage.Tuple(nil), bound...))
			return
		}
	rows:
		for _, r := range tables[i].rows {
			bound[i] = r
			for _, c := range conj {
				if c.last == i && !c.keep(bound) {
					continue rows
				}
			}
			bind(i + 1)
		}
	}
	bind(0)

	var names []string
	var out []storage.Tuple
	orderPos := -1
	aggregate := st.GroupBy != nil
	for _, item := range st.Items {
		aggregate = aggregate || item.Agg != AggNone
	}
	if aggregate {
		var err error
		if names, out, err = naiveAggregate(st, joined, resolve); err != nil {
			return nil, err
		}
		if st.OrderBy != nil {
			for i, n := range names {
				if strings.EqualFold(n, st.OrderBy.Col) {
					orderPos = i
				}
			}
			if orderPos < 0 {
				return nil, fmt.Errorf("no output column %s", *st.OrderBy)
			}
		}
	} else {
		var cols []naiveCol
		for _, item := range st.Items {
			if item.Star {
				for ti, tb := range tables {
					for ci, col := range tb.cols {
						cols = append(cols, naiveCol{ti, ci})
						names = append(names, col.Name)
					}
				}
				continue
			}
			c, err := resolve(item.Col)
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			names = append(names, tables[c.table].cols[c.col].Name)
		}
		if st.OrderBy != nil {
			// The key rides last on each row until the rows are ordered.
			c, err := resolve(*st.OrderBy)
			if err != nil {
				return nil, err
			}
			orderPos = len(cols)
			cols = append(cols, c)
		}
		for _, b := range joined {
			row := make(storage.Tuple, len(cols))
			for i, c := range cols {
				row[i] = b[c.table][c.col]
			}
			out = append(out, row)
		}
	}

	if orderPos >= 0 {
		width := len(names)
		sort.SliceStable(out, func(i, j int) bool {
			if c := orderCompare(out[i][orderPos], out[j][orderPos]); c != 0 {
				return c < 0 != st.Desc
			}
			return contentCompare(out[i][:width], out[j][:width]) < 0
		})
		for i, r := range out {
			out[i] = r[:width]
		}
	}
	if st.Limit >= 0 && st.Limit < len(out) {
		out = out[:st.Limit]
	}
	return &Result{Cols: names, Rows: out}, nil
}

// naiveAggregate groups the joined rows and renders one row per group
// in select-item order. Groups follow the documented rule: a row joins
// the group whose value it equals under storage.Equal, except that NULL
// equals only NULL and NaN only NaN, and a group shows the least of its
// values in content order. MIN and MAX pick by the ORDER BY key order
// (NaN after every number), ties going to the least value in content
// order, as ORDER BY breaks them. A global aggregate over no rows is
// one row.
func naiveAggregate(st *SelectStmt, joined [][]storage.Tuple,
	resolve func(ColRef) (naiveCol, error)) ([]string, []storage.Tuple, error) {
	group := naiveCol{table: -1}
	if st.GroupBy != nil {
		var err error
		if group, err = resolve(*st.GroupBy); err != nil {
			return nil, nil, err
		}
	}
	type naiveGroup struct {
		shown   storage.Value
		members [][]storage.Tuple
	}
	var groups []*naiveGroup
	for _, b := range joined {
		var gv storage.Value
		if group.table >= 0 {
			gv = b[group.table][group.col]
		}
		var g *naiveGroup
		for _, c := range groups {
			if sameGroup(c.shown, gv) {
				g = c
				break
			}
		}
		if g == nil {
			g = &naiveGroup{shown: gv}
			groups = append(groups, g)
		} else if valueContentCompare(gv, g.shown) < 0 {
			g.shown = gv
		}
		g.members = append(g.members, b)
	}
	if group.table < 0 && len(groups) == 0 {
		groups = append(groups, &naiveGroup{})
	}

	names := make([]string, len(st.Items))
	args := make([]naiveCol, len(st.Items))
	for i, item := range st.Items {
		switch {
		case item.Star:
			return nil, nil, fmt.Errorf("SELECT * with aggregates")
		case item.Agg == AggNone:
			if st.GroupBy == nil || !strings.EqualFold(item.Col.Col, st.GroupBy.Col) {
				return nil, nil, fmt.Errorf("column %s outside GROUP BY", item.Col)
			}
			names[i] = item.Col.Col
		case item.AggStar:
			names[i] = strings.ToLower(string(item.Agg)) + "(*)"
		default:
			c, err := resolve(item.Col)
			if err != nil {
				return nil, nil, err
			}
			args[i] = c
			names[i] = strings.ToLower(string(item.Agg)) + "(" + item.Col.Col + ")"
		}
	}
	out := make([]storage.Tuple, 0, len(groups))
	for _, g := range groups {
		row := make(storage.Tuple, len(st.Items))
		for i, item := range st.Items {
			if item.Agg == AggNone {
				row[i] = g.shown
				continue
			}
			if item.AggStar {
				row[i] = storage.IntValue(int64(len(g.members)))
				continue
			}
			var n int
			var sum float64
			var best storage.Value
			for _, b := range g.members {
				v := b[args[i].table][args[i].col]
				if v.IsNull() {
					continue
				}
				c := orderCompare(v, best) // MIN is ORDER BY's first value, MAX ORDER BY DESC's
				if item.Agg == AggMax {
					c = -c
				}
				if n == 0 || c < 0 || c == 0 && valueContentCompare(v, best) < 0 {
					best = v
				}
				f, _ := v.AsFloat()
				sum += f
				n++
			}
			switch {
			case item.Agg == AggCount: // COUNT(col): the non-NULL values
				row[i] = storage.IntValue(int64(n))
			case item.Agg == AggSum:
				row[i] = storage.FloatValue(sum)
			case n == 0:
				row[i] = storage.NullValue()
			case item.Agg == AggAvg:
				row[i] = storage.FloatValue(sum / float64(n))
			default:
				row[i] = best
			}
		}
		out = append(out, row)
	}
	return names, out, nil
}

// satisfies applies one WHERE conjunct: IS [NOT] NULL tests NULL, and
// every comparison is false on NULL and otherwise CmpOp.Eval of
// storage.Compare.
func satisfies(p Pred, v storage.Value) bool {
	switch p.Op {
	case OpIsNull:
		return v.IsNull()
	case OpNotNull:
		return !v.IsNull()
	}
	return !v.IsNull() && p.Op.Eval(storage.Compare(v, p.Lit))
}

// isNaN reports whether v is a NaN number.
func isNaN(v storage.Value) bool {
	f, ok := v.AsFloat()
	return ok && math.IsNaN(f)
}

// joinsWith is an ON equality: NULL never joins, and a join key keeps
// NaN apart from every number, equal only to NaN (DESIGN.md, struct
// join keys); otherwise storage.Equal.
func joinsWith(a, b storage.Value) bool {
	if a.IsNull() || b.IsNull() || isNaN(a) || isNaN(b) {
		return !a.IsNull() && !b.IsNull() && isNaN(a) && isNaN(b)
	}
	return storage.Equal(a, b)
}

// sameGroup is GROUP BY's equality: storage.Equal, except that NULL
// equals only NULL and NaN only NaN.
func sameGroup(a, b storage.Value) bool {
	if a.IsNull() || b.IsNull() || isNaN(a) || isNaN(b) {
		return a.IsNull() == b.IsNull() && isNaN(a) == isNaN(b)
	}
	return storage.Equal(a, b)
}

// orderCompare is the ORDER BY key order: storage.Compare (NULL first),
// except that NaN sorts after every other number and equals only NaN.
func orderCompare(a, b storage.Value) int {
	_, an := a.AsFloat()
	_, bn := b.AsFloat()
	if an && bn && (isNaN(a) || isNaN(b)) {
		switch {
		case isNaN(a) && isNaN(b):
			return 0
		case isNaN(a):
			return 1
		}
		return -1
	}
	return storage.Compare(a, b)
}

// contentCompare is the ORDER BY tie-break: rows compared value by
// value in content order, a shorter row first when one is a prefix.
func contentCompare(a, b storage.Tuple) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := valueContentCompare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// valueContentCompare is a strict total order on value contents: kind
// tag first, then the payload, floats by their bit image.
func valueContentCompare(a, b storage.Value) int {
	cmp := func(less, greater bool) int {
		switch {
		case less:
			return -1
		case greater:
			return 1
		}
		return 0
	}
	if a.Kind != b.Kind {
		return cmp(a.Kind < b.Kind, a.Kind > b.Kind)
	}
	switch a.Kind {
	case storage.KindInt:
		return cmp(a.Int < b.Int, a.Int > b.Int)
	case storage.KindFloat:
		x, y := math.Float64bits(a.Float), math.Float64bits(b.Float)
		return cmp(x < y, x > y)
	case storage.KindString:
		return cmp(a.Str < b.Str, a.Str > b.Str)
	case storage.KindBool:
		return cmp(!a.Bool && b.Bool, a.Bool && !b.Bool)
	}
	return 0
}
