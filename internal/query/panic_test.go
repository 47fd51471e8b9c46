package query

import (
	"fmt"
	"sync"
	"testing"

	"github.com/adm-project/adm/internal/trace"
)

// TestWorkerPanicDegradesToSerial injects a panic into every phase of
// every worker of the parallel executor, one at a time, and requires
// each query to return exactly the serial plan's rows with the panic
// contained — one bad worker degrades the query, never the process.
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
			e := NewEngine(NewCatalog(256), log, nil)
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
				panics := log.Count(trace.KindPanic)
				res, rep, err := e.ExecuteSQL(sql, ExecOptions{
					Workers: 4,
					panicInWorker: func(w int, phase string, _ int) {
						if w == target.worker && phase == target.phase {
							panic("injected worker failure")
						}
					},
				})
				if err != nil {
					t.Fatalf("panic at worker %d phase %s: query failed: %v", target.worker, target.phase, err)
				}
				if !rep.PanicContained {
					t.Fatalf("panic at worker %d phase %s: not reported as contained", target.worker, target.phase)
				}
				if rep.Parallel {
					t.Fatalf("panic at worker %d phase %s: report still claims parallel", target.worker, target.phase)
				}
				requireSameOrdered(t, fmt.Sprintf("panic at worker %d phase %s", target.worker, target.phase),
					rowsMultiset(res), want)
				if log.Count(trace.KindPanic) != panics+1 {
					t.Fatalf("panic at worker %d phase %s: no panic trace event emitted", target.worker, target.phase)
				}
			}
		})
	}
}

// TestAllWorkersPanic panics every worker simultaneously: containment
// must still latch exactly one failure and fall back to serial.
func TestAllWorkersPanic(t *testing.T) {
	log := trace.New()
	e := NewEngine(NewCatalog(256), log, nil)
	seedParallel(t, e)
	sql := "SELECT u.city, SUM(o.amount) FROM users u JOIN orders o ON u.id = o.user_id GROUP BY u.city"
	want := rowsMultiset(refSelect(t, e, sql, nil))
	// One worker is the inline case: the panic is on the caller's own
	// goroutine and must still come back as a contained failure.
	for _, workers := range []int{1, 4} {
		res, rep, err := e.ExecuteSQL(sql, ExecOptions{
			Workers:       workers,
			panicInWorker: func(w int, phase string, _ int) { panic("every worker dies") },
		})
		if err != nil {
			t.Fatalf("workers=%d: all-worker panic: %v", workers, err)
		}
		if !rep.PanicContained || rep.Parallel {
			t.Fatalf("workers=%d: all-worker panic not contained: %+v", workers, rep)
		}
		requireSameOrdered(t, fmt.Sprintf("workers=%d", workers), rowsMultiset(res), want)
	}
}
