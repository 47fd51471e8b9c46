// Package allocbudget runs exact allocation budgets inside go test: a
// benchmark body's allocations and bytes per run, counted over a fixed
// number of runs. Counts repeat on any host, so unlike a timing they
// can gate a plain go test.
package allocbudget

import (
	"runtime"
	"testing"
)

// Skip skips t where the counts are not the code's own: under -race,
// whose detector allocates beside the code it watches, and under
// -short, since the fixtures take a while to load.
func Skip(t *testing.T) {
	t.Helper()
	if race {
		t.Skip("allocation budgets are not counted under -race")
	}
	if testing.Short() {
		t.Skip("allocation budgets are skipped under -short")
	}
}

// Counts is one body's allocations per run, ready to be held to its
// budgets.
type Counts struct {
	t             *testing.T
	name          string
	allocs, bytes uint64
}

// Measure counts what op, one run of the benchmark body name,
// allocates per run as go test -benchtime <runs>x -benchmem counts
// it: one warm-up run, then the runtime.MemStats Mallocs and
// TotalAlloc deltas over runs runs, at the host's GOMAXPROCS, so
// bodies that fan out to workers contend for their pools as they do
// in production.
func Measure(t *testing.T, name string, runs int, op func()) Counts {
	t.Helper()
	var before, after runtime.MemStats
	op()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return Counts{t, name, (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n}
}

// Allocs fails the test when the body allocates more than budget times
// per run.
func (c Counts) Allocs(budget uint64) { c.t.Helper(); c.check("allocs", c.allocs, budget) }

// Bytes fails the test when the body allocates more than budget bytes
// per run.
func (c Counts) Bytes(budget uint64) { c.t.Helper(); c.check("B", c.bytes, budget) }

func (c Counts) check(unit string, got, budget uint64) {
	c.t.Helper()
	c.t.Logf("%s: %d %s/op (budget %d)", c.name, got, unit, budget)
	if got > budget {
		c.t.Errorf("allocation regression: %s at %d %s/op, budget %d", c.name, got, unit, budget)
	}
}
