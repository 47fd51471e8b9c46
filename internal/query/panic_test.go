package query

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/trace"
)

// firstRunOnly arms inject for a statement's first run only: it
// disarms once the engine has traced a contained panic, which runSelect
// does before it re-runs the statement at one worker.
func firstRunOnly(log *trace.Log, inject func(w int, phase string)) func(int, string, int) {
	armedAt := log.Count(trace.KindPanic)
	return func(w int, phase string, _ int) {
		if log.Count(trace.KindPanic) == armedAt {
			inject(w, phase)
		}
	}
}

// requireDegraded checks the report and plan of a statement re-run
// after a contained panic: one worker, not parallel, contained.
func requireDegraded(t *testing.T, label string, res *Result, rep *ExecReport) {
	t.Helper()
	if !rep.PanicContained || rep.Parallel || rep.Workers != 1 {
		t.Fatalf("%s: report %+v, want a contained panic re-run at one worker", label, rep)
	}
	if !strings.HasPrefix(res.Plan, "Parallel(workers=1) ") {
		t.Fatalf("%s: degraded plan %q", label, res.Plan)
	}
}

// TestWorkerPanicDegradesToSerial injects a panic into every phase of
// every worker of the parallel executor, one at a time and in the first
// run only, and requires each query to return the naive evaluator's
// rows with the panic contained — one bad worker degrades the query to
// a one-worker re-run, never the process.
func TestWorkerPanicDegradesToSerial(t *testing.T) {
	queries := []string{
		"SELECT id, city, age FROM users",
		"SELECT id, age FROM users WHERE age > 40",
		"SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id",
		"SELECT city, COUNT(*) FROM users GROUP BY city",
		"SELECT u.city, SUM(o.amount) FROM users u JOIN orders o ON u.id = o.user_id GROUP BY u.city",
		"SELECT id, age FROM users ORDER BY id DESC LIMIT 7",
	}
	for _, sql := range queries {
		t.Run(sql, func(t *testing.T) {
			log := trace.New()
			e := NewEngine(NewCatalog(), log, nil)
			seedParallel(t, e)
			want := rowsMultiset(refSelect(t, e, sql, nil))

			// Discovery run: record every (worker, phase) the executor
			// actually visits for this query shape.
			type site struct {
				worker int
				phase  string
			}
			var mu sync.Mutex
			seen := map[site]bool{}
			_, _, err := e.ExecuteSQL(sql, ExecOptions{
				Workers: 4,
				panicInWorker: func(w int, phase string, _ int) {
					mu.Lock()
					seen[site{w, phase}] = true
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatalf("discovery run: %v", err)
			}
			if len(seen) == 0 {
				t.Fatal("discovery run visited no worker phases")
			}

			for target := range seen {
				label := fmt.Sprintf("panic at worker %d phase %s", target.worker, target.phase)
				panics := log.Count(trace.KindPanic)
				res, rep, err := e.ExecuteSQL(sql, ExecOptions{
					Workers: 4,
					panicInWorker: firstRunOnly(log, func(w int, phase string) {
						if w == target.worker && phase == target.phase {
							panic("injected worker failure")
						}
					}),
				})
				if err != nil {
					t.Fatalf("%s: query failed: %v", label, err)
				}
				requireDegraded(t, label, res, rep)
				requireSameOrdered(t, label, rowsMultiset(res), want)
				if log.Count(trace.KindPanic) != panics+1 {
					t.Fatalf("%s: no panic trace event emitted", label)
				}
			}
		})
	}
}

// TestAllWorkersPanic panics every worker of the first run
// simultaneously: containment must still latch exactly one failure and
// re-run the statement at one worker.
func TestAllWorkersPanic(t *testing.T) {
	log := trace.New()
	e := NewEngine(NewCatalog(), log, nil)
	seedParallel(t, e)
	sql := "SELECT u.city, SUM(o.amount) FROM users u JOIN orders o ON u.id = o.user_id GROUP BY u.city"
	want := rowsMultiset(refSelect(t, e, sql, nil))
	// One worker is the inline case: the panic is on the caller's own
	// goroutine and must still come back as a contained failure.
	for _, workers := range []int{1, 4} {
		res, rep, err := e.ExecuteSQL(sql, ExecOptions{
			Workers:       workers,
			panicInWorker: firstRunOnly(log, func(int, string) { panic("every worker dies") }),
		})
		if err != nil {
			t.Fatalf("workers=%d: all-worker panic: %v", workers, err)
		}
		requireDegraded(t, fmt.Sprintf("workers=%d", workers), res, rep)
		requireSameOrdered(t, fmt.Sprintf("workers=%d", workers), rowsMultiset(res), want)
	}
}

// TestDeterministicPanicFailsStatement: a panic that the one-worker
// re-run hits again is the statement's error, a contained
// *operators.PanicError; the engine leaks no transaction and no pooled
// batch, and serves the next statement.
func TestDeterministicPanicFailsStatement(t *testing.T) {
	log := trace.New()
	e := NewEngine(NewCatalog(), log, nil)
	seedParallel(t, e)
	sql := "SELECT u.city, SUM(o.amount) FROM users u JOIN orders o ON u.id = o.user_id GROUP BY u.city"
	want := rowsMultiset(refSelect(t, e, sql, nil))
	batches := operators.OutstandingBatches()
	for _, workers := range []int{1, 4} {
		panics := log.Count(trace.KindPanic)
		_, rep, err := e.ExecuteSQL(sql, ExecOptions{
			Workers:       workers,
			panicInWorker: func(int, string, int) { panic("a deterministic bug") },
		})
		var pe *operators.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a contained *operators.PanicError", workers, err)
		}
		if rep == nil || !rep.PanicContained || rep.Workers != 1 {
			t.Fatalf("workers=%d: report %+v, want the one-worker re-run's", workers, rep)
		}
		if n := log.Count(trace.KindPanic); n != panics+1 {
			t.Fatalf("workers=%d: %d panic events, want one: the re-run must not recurse", workers, n-panics)
		}
		if n := e.cat.db.Txns().Active(); n != 0 {
			t.Fatalf("workers=%d: %d transactions left open", workers, n)
		}
		if n := operators.OutstandingBatches(); n != batches {
			t.Fatalf("workers=%d: %d pooled batches outstanding, want %d", workers, n, batches)
		}
		res, _, err := e.ExecuteSQL(sql, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: next statement: %v", workers, err)
		}
		requireSameOrdered(t, fmt.Sprintf("workers=%d: next statement", workers), rowsMultiset(res), want)
	}
}
