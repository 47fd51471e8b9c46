package query

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// keepSink is a RowSink that keeps every row it is handed, cut down to
// its select-list positions, as a client would decode it.
type keepSink struct {
	names []string
	rows  []storage.Tuple
	calls int
}

func (s *keepSink) Rows(names []string, pos []int, rows []storage.Tuple) error {
	s.names, s.calls = names, s.calls+1
	for _, t := range rows {
		row := make(storage.Tuple, len(pos))
		for i, p := range pos {
			row[i] = t[p]
		}
		s.rows = append(s.rows, row)
	}
	return nil
}

// result renders what the sink received as a Result, for the multiset
// helpers.
func (s *keepSink) result() *Result { return &Result{Cols: s.names, Rows: s.rows} }

// TestSinkMatchesNaive: every SELECT shape delivers through a sink the
// rows it would return in Result.Rows — the naive evaluator's, in the
// same order under ORDER BY — under the select list's names, and leaves
// Result.Rows empty. A bare unordered scan streams (one call per batch
// that survives its filter); every other shape hands its rows over once.
func TestSinkMatchesNaive(t *testing.T) {
	e := NewEngine(NewCatalog(), trace.New(), nil)
	seedParallel(t, e)
	cases := []struct {
		sql    string
		stream bool
	}{
		{"SELECT id, city, age FROM users", true},
		{"SELECT age, id FROM users WHERE age > 40", true},
		{"SELECT * FROM orders", true},
		{"SELECT id FROM users WHERE age > 1000", true},
		{"SELECT id, age FROM users ORDER BY age DESC", false},
		{"SELECT city, COUNT(*) FROM users GROUP BY city", false},
		{"SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE o.amount > 100", false},
		{"SELECT id, city FROM users LIMIT 0", false},
	}
	for _, tc := range cases {
		ref := refSelect(t, e, tc.sql, nil)
		want := rowsMultiset(ref)
		for _, workers := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s at %d workers", tc.sql, workers)
			sink := &keepSink{}
			res, rep, err := e.ExecuteSQL(tc.sql, ExecOptions{Workers: workers, Sink: sink})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Rows != nil || rep.Sent != len(sink.rows) || strings.Join(sink.names, ",") != strings.Join(ref.Cols, ",") {
				t.Fatalf("%s: Result.Rows %v, Sent %d of %d rows named %v; want none, all, named %v",
					label, res.Rows, rep.Sent, len(sink.rows), sink.names, ref.Cols)
			}
			if !tc.stream && sink.calls != 1 {
				t.Fatalf("%s: %d sink calls, want one", label, sink.calls)
			}
			requireSameOrdered(t, label, rowsMultiset(sink.result()), want)
		}
	}
}

// TestStreamedLimitIsExact: an unordered LIMIT hands the sink exactly
// LIMIT rows (all of them when there are fewer), distinct rows of the
// table, at any worker count and batch size.
func TestStreamedLimitIsExact(t *testing.T) {
	e := NewEngine(NewCatalog(), trace.New(), nil)
	seedParallel(t, e)
	for _, limit := range []int{1, 7, 64, 119, 120, 500} {
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []int{0, 1, 16} {
				label := fmt.Sprintf("LIMIT %d at %d workers, batch %d", limit, workers, batch)
				sink := &keepSink{}
				_, _, err := e.ExecuteSQL(fmt.Sprintf("SELECT id FROM users LIMIT %d", limit),
					ExecOptions{Workers: workers, BatchSize: batch, Sink: sink})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if want := min(limit, 120); len(sink.rows) != want {
					t.Fatalf("%s: %d rows, want %d", label, len(sink.rows), want)
				}
				seen := map[int64]bool{}
				for _, r := range sink.rows {
					if seen[r[0].Int] || r[0].Int < 0 || r[0].Int >= 120 {
						t.Fatalf("%s: row %v duplicated or not in users", label, r)
					}
					seen[r[0].Int] = true
				}
			}
		}
	}
}

// TestStreamedPanicContainment: a worker panic before any row has left
// for the sink is contained as ever — the statement re-runs at one
// worker and the sink sees each row once — but a panic after rows have
// left is the statement's error: a re-run would send them again. Either
// way no transaction or pooled batch is left behind.
func TestStreamedPanicContainment(t *testing.T) {
	log := trace.New()
	e := NewEngine(NewCatalog(), log, nil)
	seedParallel(t, e)
	batches := operators.OutstandingBatches()
	before := []struct{ sql, phase string }{
		{"SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id", "build"},
		{"SELECT city, COUNT(*) FROM users GROUP BY city", "aggregate"},
		{"SELECT id FROM users WHERE age > 1000", "scan"}, // streamed, but nothing to send
	}
	for _, workers := range []int{1, 2, 4} {
		for _, tc := range before {
			label := fmt.Sprintf("%s, panic in %s at %d workers", tc.sql, tc.phase, workers)
			sink := &keepSink{}
			res, rep, err := e.ExecuteSQL(tc.sql, ExecOptions{
				Workers: workers,
				Sink:    sink,
				panicInWorker: firstRunOnly(log, func(_ int, phase string) {
					if phase == tc.phase {
						panic("injected before any row leaves")
					}
				}),
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireDegraded(t, label, res, rep)
			requireSameOrdered(t, label, rowsMultiset(sink.result()), rowsMultiset(refSelect(t, e, tc.sql, nil)))
		}

		label := fmt.Sprintf("streamed scan, panic after rows left at %d workers", workers)
		panics := log.Count(trace.KindPanic)
		sink := &keepSink{}
		_, rep, err := e.ExecuteSQL("SELECT id, city FROM users", ExecOptions{
			Workers: workers,
			Sink:    sink,
			panicInWorker: func(_ int, _ string, rows int) {
				if rows > 0 { // this worker's rows have left
					panic("injected after rows left")
				}
			},
		})
		var pe *operators.PanicError
		if !errors.As(err, &pe) || rep == nil || rep.PanicContained || rep.Sent == 0 {
			t.Fatalf("%s: err %v, report %+v; want the panic as the statement's error after rows left", label, err, rep)
		}
		if log.Count(trace.KindPanic) != panics {
			t.Fatalf("%s: traced a re-run", label)
		}
		seen := map[int64]bool{}
		for _, r := range sink.rows {
			if seen[r[0].Int] {
				t.Fatalf("%s: row %v sent twice", label, r)
			}
			seen[r[0].Int] = true
		}
		if rep.Sent != len(sink.rows) {
			t.Fatalf("%s: report says %d rows sent, the sink has %d", label, rep.Sent, len(sink.rows))
		}
	}
	if n := e.cat.db.Txns().Active(); n != 0 {
		t.Fatalf("%d transactions left open", n)
	}
	if n := operators.OutstandingBatches(); n != batches {
		t.Fatalf("%d pooled batches outstanding, want %d", n, batches)
	}
}
