// UPDATE/DELETE row selection goes through the SELECT planner
// (Engine.execDML): these tests pin what must hold whichever access
// path it picks — the Halloween guarantee, agreement with an
// independent boxed predicate across {index, no index} × {kernel,
// boxed} × {explicit transaction, autocommit}, the access path rendered
// on Result.Plan, and cancellation while choosing and while claiming.
package query

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
)

// newDMLEngine builds a durable engine over `hard` (seedHard's rows),
// loaded by one committed transaction.
func newDMLEngine(t *testing.T, rows int, withIndex bool) (*Engine, *storage.DB) {
	t.Helper()
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewDurableCatalog(db)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat, nil, nil)
	e.MustExec("CREATE TABLE hard (a INT, f FLOAT, s STRING)")
	if withIndex {
		e.MustExec("CREATE INDEX ON hard (a)")
		e.MustExec("CREATE INDEX ON hard (f)") // NaN keys beside numbers
	}
	var load []storage.Tuple
	for i := rows - 1; i >= 0; i-- { // last first: f's index meets numbers before a NaN
		load = append(load, hardRow(i))
	}
	loadRows(t, cat, "hard", load...)
	if err := cat.Analyze("hard"); err != nil { // statistics + zone maps
		t.Fatal(err)
	}
	return e, db
}

// refPred is the tests' own reading of a WHERE conjunction, written
// against the SQL rules and not the engine's compilers: NULL fails
// every comparison, IS [NOT] NULL is the only test that sees it, and
// everything else is the sign of storage.Compare.
func refPred(cols []Column, where []Pred) func(storage.Tuple) bool {
	return func(row storage.Tuple) bool {
		for _, p := range where {
			ci := -1
			for i, c := range cols {
				if strings.EqualFold(c.Name, p.Col.Col) {
					ci = i
				}
			}
			v := row[ci]
			var ok bool
			switch cmp := storage.Compare(v, p.Lit); p.Op {
			case OpIsNull:
				ok = v.IsNull()
			case OpNotNull:
				ok = !v.IsNull()
			case OpEQ:
				ok = !v.IsNull() && cmp == 0
			case OpNE:
				ok = !v.IsNull() && cmp != 0
			case OpLT:
				ok = !v.IsNull() && cmp < 0
			case OpLE:
				ok = !v.IsNull() && cmp <= 0
			case OpGT:
				ok = !v.IsNull() && cmp > 0
			case OpGE:
				ok = !v.IsNull() && cmp >= 0
			}
			if !ok {
				return false
			}
		}
		return true
	}
}

// tupleLines renders rows as a sorted multiset of lines.
func tupleLines(rows []storage.Tuple) []string {
	return rowsMultiset(&Result{Rows: rows})
}

func pred(col string, op CmpOp, lit storage.Value) Pred {
	return Pred{Col: ColRef{Col: col}, Op: op, Lit: lit}
}

// dmlCases is the differential table: a nil set is a DELETE.
var dmlCases = []struct {
	name  string
	set   map[string]storage.Value
	where []Pred
}{
	{"update-eq-indexed", map[string]storage.Value{"s": storage.StringValue("hit")},
		[]Pred{pred("a", OpEQ, storage.IntValue(7))}},
	{"update-range-indexed", map[string]storage.Value{"s": storage.StringValue("hit")},
		[]Pred{pred("a", OpGE, storage.IntValue(50)), pred("a", OpLT, storage.IntValue(60))}},
	{"delete-lt-indexed", nil, []Pred{pred("a", OpLT, storage.IntValue(0))}},
	{"delete-is-null", nil, []Pred{pred("f", OpIsNull, storage.Value{})}},
	{"update-multi-conjunct", map[string]storage.Value{"f": storage.FloatValue(1.5)},
		[]Pred{pred("s", OpNotNull, storage.Value{}), pred("a", OpLE, storage.IntValue(10)),
			pred("f", OpGE, storage.FloatValue(0))}},
	{"update-key-halloween", map[string]storage.Value{"a": storage.IntValue(7)},
		[]Pred{pred("a", OpGE, storage.IntValue(0))}},
	{"delete-all", nil, nil},
	{"update-all-to-null", map[string]storage.Value{"s": storage.NullValue()}, nil},
	{"update-f-eq-nan", map[string]storage.Value{"s": storage.StringValue("n")},
		[]Pred{pred("f", OpEQ, storage.FloatValue(math.NaN()))}},
	{"delete-a-eq-nan", nil, []Pred{pred("a", OpEQ, storage.FloatValue(math.NaN()))}},
	{"delete-a-lt-nan", nil, []Pred{pred("a", OpLT, storage.FloatValue(math.NaN()))}},
	{"update-f-eq-negzero", map[string]storage.Value{"s": storage.StringValue("z")},
		[]Pred{pred("f", OpEQ, storage.FloatValue(math.Copysign(0, -1)))}},
	{"delete-a-gt-null", nil, []Pred{pred("a", OpGT, storage.NullValue())}},
	{"update-a-eq-null", map[string]storage.Value{"s": storage.StringValue("never")},
		[]Pred{pred("a", OpEQ, storage.NullValue())}},
	{"update-s-eq-empty", map[string]storage.Value{"s": storage.StringValue("x")},
		[]Pred{pred("s", OpEQ, storage.StringValue(""))}},
	{"delete-cross-kind", nil, []Pred{pred("s", OpGT, storage.IntValue(100))}},
	{"delete-a-le-string", nil, []Pred{pred("a", OpLE, storage.StringValue("x"))}},
	{"delete-no-match", nil, []Pred{pred("a", OpEQ, storage.IntValue(12345))}},
	{"update-set-nan", map[string]storage.Value{"f": storage.FloatValue(math.NaN())},
		[]Pred{pred("a", OpEQ, storage.IntValue(3))}},
	{"delete-past-2^53", nil, []Pred{pred("a", OpGE, storage.IntValue(1<<53+1))}},
	// Every NaN row of f equals 7 and is <= 2 under Compare; an index
	// that files NaN under some number's key loses them.
	{"update-f-eq-indexed", map[string]storage.Value{"s": storage.StringValue("seven")},
		[]Pred{pred("f", OpEQ, storage.FloatValue(7))}},
	{"delete-f-le-indexed", nil, []Pred{pred("f", OpLE, storage.IntValue(2))}},
	{"update-f-range-indexed", map[string]storage.Value{"s": storage.StringValue("r")},
		[]Pred{pred("f", OpGE, storage.IntValue(50)), pred("f", OpLT, storage.FloatValue(60))}},
	{"delete-f-lt-indexed", nil, []Pred{pred("f", OpLT, storage.IntValue(1))}},
}

// TestDMLDifferential: every statement of dmlCases leaves the same
// table contents and reports the same Affected whether or not the
// planner has an index to drive it from, whether the filter is the
// kernel or the boxed predicate, and inside an explicit transaction or
// in autocommit — and what it leaves is what refPred over the loaded
// table says. A
// SELECT with the statement's WHERE, run first, returns exactly the
// rows refPred picks.
func TestDMLDifferential(t *testing.T) {
	const rows = 420
	for _, tc := range dmlCases {
		for _, withIndex := range []bool{true, false} {
			for _, noKernel := range []bool{false, true} {
				for _, inTxn := range []bool{true, false} {
					name := fmt.Sprintf("%s/index=%v/boxed=%v/txn=%v", tc.name, withIndex, noKernel, inTxn)
					e, db := newDMLEngine(t, rows, withIndex)
					tbl, _ := e.cat.Table("hard")

					// The expectation, from the table as loaded.
					it, err := e.cat.Scan("hard")
					if err != nil {
						t.Fatal(err)
					}
					before, err := operators.Drain(it)
					if err != nil {
						t.Fatal(err)
					}
					match := refPred(tbl.Cols, tc.where)
					var want []storage.Tuple
					wantAffected := 0
					for _, row := range before {
						row = row.Clone()
						if match(row) {
							wantAffected++
							if tc.set == nil {
								continue
							}
							for col, v := range tc.set {
								ci, _ := tbl.ColIndex(col)
								row[ci] = v
							}
						}
						want = append(want, row)
					}

					var picked []storage.Tuple
					for _, row := range before {
						if match(row) {
							picked = append(picked, row)
						}
					}
					sel := &SelectStmt{Items: []SelectItem{{Star: true}}, From: TableRef{Name: "hard"},
						Where: tc.where, Limit: -1}
					opts := ExecOptions{Workers: 1, NoVectorKernels: noKernel}
					if inTxn {
						opts.Txn = db.Txns().Begin()
					}
					got, _, err := e.ExecuteStmt(sel, opts)
					if err != nil {
						t.Fatalf("%s: SELECT: %v", name, err)
					}
					if g, w := rowsMultiset(got), tupleLines(picked); fmt.Sprint(g) != fmt.Sprint(w) {
						t.Fatalf("%s: SELECT (plan %s):\n got %d rows %v\nwant %d rows %v",
							name, got.Plan, len(g), firstDiff(g, w), len(w), firstDiff(w, g))
					}

					var st Stmt = &DeleteStmt{Table: "hard", Where: tc.where}
					if tc.set != nil {
						st = &UpdateStmt{Table: "hard", Set: tc.set, Where: tc.where}
					}
					res, _, err := e.ExecuteStmt(st, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Affected != wantAffected {
						t.Fatalf("%s: Affected = %d, want %d (plan %s)", name, res.Affected, wantAffected, res.Plan)
					}
					var reader *storage.Txn
					if inTxn {
						if err := opts.Txn.Commit(); err != nil {
							t.Fatal(err)
						}
						reader = db.Txns().Begin()
					}
					// Read back both ways a reader can: the heap, and the index.
					for _, q := range []string{"SELECT * FROM hard", "SELECT * FROM hard WHERE a >= -1000000"} {
						got, err := execTxn(e, q, reader)
						if err != nil {
							t.Fatal(err)
						}
						wantRows := want
						if strings.Contains(q, "WHERE") {
							wantRows = nil
							for _, row := range want {
								if !row[0].IsNull() {
									wantRows = append(wantRows, row)
								}
							}
						}
						if g, w := rowsMultiset(got), tupleLines(wantRows); fmt.Sprint(g) != fmt.Sprint(w) {
							t.Fatalf("%s: %q after the statement (plan %s):\n got %d rows %v\nwant %d rows %v",
								name, q, res.Plan, len(g), firstDiff(g, w), len(w), firstDiff(w, g))
						}
					}
					if reader != nil {
						reader.Rollback()
					}
				}
			}
		}
	}
}

// firstDiff returns up to three lines of a that b lacks.
func firstDiff(a, b []string) []string {
	have := map[string]int{}
	for _, l := range b {
		have[l]++
	}
	var out []string
	for _, l := range a {
		if have[l] > 0 {
			have[l]--
			continue
		}
		if out = append(out, l); len(out) == 3 {
			break
		}
	}
	return out
}

// TestDMLHalloween: an UPDATE that rewrites the very column it selects
// on hits each row of its snapshot exactly once — its own new versions
// (which satisfy the predicate, and on the index path sit under a key
// inside the range it is walking) are never re-hit — on the index and
// the sequential path, inside a transaction and outside one.
func TestDMLHalloween(t *testing.T) {
	const rows = 300
	for _, withIndex := range []bool{true, false} {
		for _, inTxn := range []bool{true, false} {
			name := fmt.Sprintf("index=%v/txn=%v", withIndex, inTxn)
			e, db := newDMLEngine(t, rows, withIndex)
			var txn *storage.Txn
			if inTxn {
				txn = db.Txns().Begin()
			}
			wantPath := "SeqScan(hard"
			if withIndex {
				wantPath = "IndexScan(hard.a"
			}
			// Twice: the second run's snapshot holds only the first's new
			// versions (same transaction), and must hit those once each too.
			for run := 0; run < 2; run++ {
				res, err := execTxn(e, "UPDATE hard SET a = 7 WHERE a >= -1000000", txn)
				if err != nil {
					t.Fatalf("%s run %d: %v", name, run, err)
				}
				if res.Affected != rows {
					t.Fatalf("%s run %d: Affected = %d, want %d", name, run, res.Affected, rows)
				}
				if !strings.Contains(res.Plan, wantPath) {
					t.Fatalf("%s: plan %q does not use %s", name, res.Plan, wantPath)
				}
			}
			for q, want := range map[string]int{
				"SELECT a FROM hard WHERE a = 7":  rows,
				"SELECT a FROM hard":              rows,
				"SELECT a FROM hard WHERE a != 7": 0,
			} {
				got, err := execTxn(e, q, txn)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Rows) != want {
					t.Fatalf("%s: %q returned %d rows, want %d", name, q, len(got.Rows), want)
				}
			}
			if txn != nil {
				if err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestDMLPlanGolden: Result.Plan of an UPDATE/DELETE names the access
// path its rows came through, so "did it use the index" and "did the
// zone maps prune" are read off the plan, not inferred from a timing.
func TestDMLPlanGolden(t *testing.T) {
	e := newEngine(t)
	e.MustExec("CREATE TABLE item (id INT, grp INT, price FLOAT)")
	e.MustExec("CREATE INDEX ON item (id)")
	for i := 0; i < 2000; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, 1.0)", i, i/100))
	}
	e.MustExec("ANALYZE item")
	for _, tc := range []struct{ sql, want string }{
		{"DELETE FROM item WHERE grp = 3",
			"Delete(item) <- SeqScan(item est=100) | filter(item): pruned=17/19 kernel[grp = 3]"},
		{"UPDATE item SET price = 2.0 WHERE id = 5",
			"Update(item) <- IndexScan(item.id est=1)"},
		{"UPDATE item SET price = 3.0 WHERE id >= 1990 AND grp = 19",
			"Update(item) <- IndexScan(item.id est=33)"},
		{"UPDATE item SET price = 4.0",
			"Update(item) <- SeqScan(item est=2000)"},
	} {
		res, err := e.Exec(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if res.Plan != tc.want {
			t.Errorf("%s\n got %q\nwant %q", tc.sql, res.Plan, tc.want)
		}
	}
	res, _, err := e.ExecuteSQL("DELETE FROM item WHERE grp = 4", ExecOptions{Workers: 1, NoVectorKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := "Delete(item) <- SeqScan(item est=100) | filter(item): boxed[grp = 4]"; res.Plan != want {
		t.Errorf("boxed delete plan\n got %q\nwant %q", res.Plan, want)
	}
}

// TestDMLCancelDuringCollection: opts.Cancel interrupts an UPDATE or
// DELETE while it is still choosing rows. Nothing has been claimed at
// that point — the transaction has not even drawn a write id — so the
// error needs no rollback and the transaction carries on.
func TestDMLCancelDuringCollection(t *testing.T) {
	const rows = 700
	errStop := errors.New("statement deadline")
	for _, tc := range []struct{ name, sql, hits string }{
		{"index", "UPDATE hard SET s = 'c' WHERE a >= -1000000", "SELECT a FROM hard WHERE a >= -1000000"},
		{"sequential", "UPDATE hard SET s = 'c' WHERE f IS NOT NULL", "SELECT a FROM hard WHERE f IS NOT NULL"},
		{"delete", "DELETE FROM hard", "SELECT a FROM hard"},
	} {
		e, db := newDMLEngine(t, rows, true)
		txn := db.Txns().Begin()
		polls := 0
		_, _, err := e.ExecuteSQL(tc.sql, ExecOptions{Workers: 1, Txn: txn, Cancel: func() error {
			if polls++; polls == 3 {
				return errStop
			}
			return nil
		}})
		if !errors.Is(err, errStop) {
			t.Fatalf("%s: err = %v, want the cancel error", tc.name, err)
		}
		if polls != 3 {
			t.Fatalf("%s: Cancel polled %d times after it fired", tc.name, polls)
		}
		if id := txn.ID(); id != 0 {
			t.Fatalf("%s: the cancelled statement wrote (txn drew id %d)", tc.name, id)
		}
		// Still usable: the same statement now runs to the end and commits.
		want, err := execTxn(e, tc.hits, txn)
		if err != nil {
			t.Fatal(err)
		}
		res, err := execTxn(e, tc.sql, txn)
		if err != nil {
			t.Fatalf("%s after the cancel: %v", tc.name, err)
		}
		if res.Affected != len(want.Rows) || res.Affected == 0 {
			t.Fatalf("%s after the cancel: Affected = %d, want %d", tc.name, res.Affected, len(want.Rows))
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}
