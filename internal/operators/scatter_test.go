// The hash build's scatter buffers are pooled across statements. These
// tests pin what that must never change: the table, the abort prefix
// and its replay are what a fresh buffer gives; a buffer goes back to
// the pool empty and holding no tuple, whether its build assembled,
// aborted, failed or was cancelled; one that outgrew maxKeptScatter is
// dropped; and concurrent builds never see each other's rows.
package operators

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

// onePool pins GOMAXPROCS to 1 for the test, so every Put and Get hits
// one per-P pool and drainScatters sees every pooled buffer.
func onePool(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	drainScatters(t)
}

// drainScatters empties scatterPool, failing on any buffer that is not
// empty or still references a tuple anywhere in its capacity, and
// returns how many it took.
func drainScatters(t *testing.T) []*[]partBuf {
	t.Helper()
	var got []*[]partBuf
	for {
		s := scatterPool.Get().(*[]partBuf)
		if cap(*s) == 0 { // New's: the pool is empty
			return got
		}
		for i, p := range (*s)[:cap(*s)] {
			if len(p.tups) != 0 || len(p.hash) != 0 {
				t.Fatalf("pooled scatter partition %d holds %d rows, %d hashes", i, len(p.tups), len(p.hash))
			}
			for j, tu := range p.tups[:cap(p.tups)] {
				if tu != nil {
					t.Fatalf("pooled scatter partition %d slot %d still references %v", i, j, tu)
				}
			}
		}
		got = append(got, s)
	}
}

func keptRows(s *[]partBuf) int {
	n := 0
	for _, p := range (*s)[:cap(*s)] {
		n += cap(p.tups)
	}
	return n
}

// buildRows is n rows keyed i%50 with every tenth key NULL.
func buildRows(n, tag int) []storage.Tuple {
	rows := make([]storage.Tuple, n)
	for i := range rows {
		k := storage.IntValue(int64(i % 50))
		if i%10 == 3 {
			k = storage.NullValue()
		}
		rows[i] = storage.Tuple{k, storage.IntValue(int64(tag*100_000 + i))}
	}
	return rows
}

// probeAll joins every key 0..49 against bt.
func probeAll(t *testing.T, bt *BuildTable, workers int) []storage.Tuple {
	t.Helper()
	got, err := bt.ProbeProject(NewSliceBatches(buildRows(50, 9), 8), 0, ParallelConfig{Workers: workers}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestScatterBuffersComeBackClean(t *testing.T) {
	onePool(t)
	for _, workers := range []int{1, 2, 4, 8} {
		bt, _, err := ParallelBuildBatches(NewSliceBatches(buildRows(900, 1), 32), 0, ParallelConfig{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameMultiset(t, probeAll(t, bt, workers), joinOracle(buildRows(900, 1), buildRows(50, 9), 0))
	}
	if len(drainScatters(t)) == 0 {
		t.Fatal("four builds pooled no scatter buffer")
	}
}

// TestVetoedBuildOverPooledScratch: a build vetoed at a safe point over
// a pool warmed by a larger build returns the prefix a fresh buffer
// gives — at one worker, the consumed rows with non-NULL keys in
// arrival order, then the NULL-keyed ones — and replaying it gives the
// table of an unvetoed build.
func TestVetoedBuildOverPooledScratch(t *testing.T) {
	onePool(t)
	for _, workers := range []int{1, 4} {
		if _, _, err := ParallelBuildBatches(NewSliceBatches(buildRows(3000, 2), 32), 0,
			ParallelConfig{Workers: workers}, nil); err != nil {
			t.Fatal(err)
		}
		in := buildRows(1000, 3)
		src := NewSliceBatches(in, 32)
		var mu sync.Mutex
		consumed := 0
		_, prefix, err := ParallelBuildBatches(src, 0, ParallelConfig{Workers: workers}, func(rows int) bool {
			mu.Lock()
			defer mu.Unlock()
			consumed = max(consumed, rows)
			return rows <= 200
		})
		if !errors.Is(err, ErrBuildAborted) {
			t.Fatalf("workers=%d: err = %v, want ErrBuildAborted", workers, err)
		}
		var want []storage.Tuple
		if workers == 1 {
			var nulls []storage.Tuple
			for _, r := range in[:consumed] {
				if r[0].IsNull() {
					nulls = append(nulls, r)
				} else {
					want = append(want, r)
				}
			}
			if want = append(want, nulls...); fmt.Sprint(prefix) != fmt.Sprint(want) {
				t.Fatalf("prefix over pooled scratch:\n got %v\nwant %v", prefix, want)
			}
		}
		drainScatters(t)
		bt, _, err := ParallelBuildBatches(NewChainBatches(NewSliceBatches(prefix, 32), src), 0,
			ParallelConfig{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bt.Rows() != len(in) {
			t.Fatalf("workers=%d: replay built %d rows, want %d", workers, bt.Rows(), len(in))
		}
		sameMultiset(t, probeAll(t, bt, workers), joinOracle(in, buildRows(50, 9), 0))
	}
}

// panicAfter panics in NextBatch once it has served n batches.
type panicAfter struct {
	src  BatchSource
	mu   sync.Mutex
	n    int
	seen int
}

func (p *panicAfter) NextBatch(b *Batch) (int, error) {
	p.mu.Lock()
	p.seen++
	boom := p.seen > p.n
	p.mu.Unlock()
	if boom {
		panic("source dies mid-build")
	}
	return p.src.NextBatch(b)
}

// TestFailedBuildPoolsNoTuple: a build whose worker panics (in the
// source, or in the panic-injection hook once its rows are scattered)
// or whose statement is cancelled returns its error, and every buffer
// it handed back is empty.
func TestFailedBuildPoolsNoTuple(t *testing.T) {
	onePool(t)
	errStop := errors.New("statement cancelled")
	for _, workers := range []int{1, 4} {
		polls := 0
		var pollMu sync.Mutex
		for name, cfg := range map[string]ParallelConfig{
			"hook panics": {Workers: workers, OnWorker: func(int, string, int) { panic("worker dies") }},
			"cancelled": {Workers: workers, Cancel: func() error {
				pollMu.Lock()
				defer pollMu.Unlock()
				if polls++; polls > 10 {
					return errStop
				}
				return nil
			}},
			"source panics": {Workers: workers},
		} {
			var src BatchSource = NewSliceBatches(buildRows(2000, 4), 16)
			if name == "source panics" {
				src = &panicAfter{src: src, n: 10}
			}
			bt, prefix, err := ParallelBuildBatches(src, 0, cfg, nil)
			var pe *PanicError
			if bt != nil || prefix != nil || !errors.As(err, &pe) && !errors.Is(err, errStop) {
				t.Fatalf("%s, workers=%d: table %v, prefix %d rows, err %v", name, workers, bt != nil, len(prefix), err)
			}
			drainScatters(t)
		}
	}
}

func TestOversizedScatterIsNotKept(t *testing.T) {
	onePool(t)
	if _, _, err := ParallelBuildBatches(NewSliceBatches(buildRows(maxKeptScatter+1, 5), 64), 0,
		ParallelConfig{Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if kept := drainScatters(t); len(kept) != 0 {
		t.Fatalf("a build of %d rows at one worker pooled %d rows of scratch (bound %d)",
			maxKeptScatter+1, keptRows(kept[0]), maxKeptScatter)
	}
	// The race detector drops a quarter of all Puts: retry until one lands.
	var kept []*[]partBuf
	for try := 0; try < 20 && len(kept) == 0; try++ {
		if _, _, err := ParallelBuildBatches(NewSliceBatches(buildRows(maxKeptScatter/2, 5), 64), 0,
			ParallelConfig{Workers: 1}, nil); err != nil {
			t.Fatal(err)
		}
		kept = drainScatters(t)
	}
	if len(kept) != 1 || keptRows(kept[0]) > maxKeptScatter {
		t.Fatalf("a build under the bound kept %d buffers, want 1 of <= %d rows", len(kept), maxKeptScatter)
	}
}

// TestConcurrentBuildsShareThePool: eight builds at once, each over its
// own rows and repeated, each probe equal to its serial build's.
func TestConcurrentBuildsShareThePool(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		in := buildRows(300+100*g, 10+g)
		serial, _, err := ParallelBuildBatches(NewSliceBatches(in, 16), 0, ParallelConfig{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := probeAll(t, serial, 1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				workers := 1 + (g+rep)%4
				bt, _, err := ParallelBuildBatches(NewSliceBatches(in, 16), 0, ParallelConfig{Workers: workers}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := bt.ProbeProject(NewSliceBatches(buildRows(50, 9), 8), 0, ParallelConfig{Workers: workers}, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(multiset(got)) != fmt.Sprint(multiset(want)) {
					t.Errorf("build %d rep %d at %d workers: %d rows, want %d", g, rep, workers, len(got), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
