package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
)

// SortBenchTuples builds `rows` three-column tuples whose key column
// mixes heavy duplicates with a long unique tail — the regime where
// both the comparator cost and the tie-break cost are visible. It is
// the input of the sort and Top-K benches here and in bench_test.go.
func SortBenchTuples(rows int) []storage.Tuple {
	out := make([]storage.Tuple, rows)
	for i := 0; i < rows; i++ {
		key := int64((i * 2654435761) % (rows / 4)) // ~4 rows per key
		out[i] = intRow(key, int64(i%97), int64(i))
	}
	return out
}

// RunParallelSortBench times a full ORDER BY over materialised rows.
// Two families come out of one run:
//
//   - SerialSort: the pre-pipeline reference — sort.SliceStable with
//     storage.Compare called on boxed Values per comparison. This is
//     what the engine did before typed key extraction, re-measured in
//     the same process so the speedup claim is apples-to-apples.
//   - ParallelSort at each requested worker count: worker-local runs
//     with typed keys, merged through the loser tree and drained.
//
// The sort-vs-serial gate reads ParallelSort/4 against SerialSort; on
// a single-core host that ratio is almost entirely the comparator
// win. Repeats are interleaved — every round measures the serial
// reference and every worker count back-to-back — so a transient load
// spike lands on both sides of the ratio instead of skewing whichever
// bench happened to own that window.
func RunParallelSortBench(m *Measurements, rows int, workers []int, repeats, batch int) error {
	tuples := SortBenchTuples(rows)
	for rep := 0; rep < repeats; rep++ {
		buf := make([]storage.Tuple, len(tuples))
		copy(buf, tuples)
		start := time.Now()
		sort.SliceStable(buf, func(i, j int) bool {
			return storage.Compare(buf[i][0], buf[j][0]) < 0
		})
		m.Add(series("SerialSort", 1), float64(rows)/time.Since(start).Seconds())
		for _, w := range workers {
			start := time.Now()
			got, err := operators.ParallelSortBatches(
				operators.NewSliceBatches(tuples, batch), 0, false, nil,
				operators.ParallelConfig{Workers: w, MorselSize: batch})
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			if len(got) != rows {
				return fmt.Errorf("parallel sort produced %d rows, want %d", len(got), rows)
			}
			m.Add(series("ParallelSort", w), float64(rows)/elapsed.Seconds())
		}
	}
	return nil
}

// RunTopKBench times ORDER BY ... LIMIT k (k=10) over the same rows:
// per-worker bounded heaps, k·workers candidates merged at the
// barrier. Throughput is input rows per second — the point of the
// operator is that it scans everything but materialises almost
// nothing (the root TestAllocBudgets's topK budgets gate exactly that,
// as counts).
func RunTopKBench(m *Measurements, rows int, workers []int, repeats, batch int) error {
	const k = 10
	tuples := SortBenchTuples(rows)
	for rep := 0; rep < repeats; rep++ {
		for _, w := range workers {
			start := time.Now()
			got, err := operators.ParallelTopKBatches(
				operators.NewSliceBatches(tuples, batch), 0, false, nil, k,
				operators.ParallelConfig{Workers: w, MorselSize: batch})
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			if len(got) != k {
				return fmt.Errorf("top-k produced %d rows, want %d", len(got), k)
			}
			m.Add(series("TopK", w), float64(rows)/elapsed.Seconds())
		}
	}
	return nil
}
