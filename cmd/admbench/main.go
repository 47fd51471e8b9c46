// Command admbench regenerates the paper's tables and figures, and
// benchmarks the parallel executor.
//
// Usage:
//
//	admbench                      # run everything, print paper-vs-measured
//	admbench -exp table1          # run one experiment
//	admbench -list                # list experiment ids
//	admbench -markdown            # emit markdown (EXPERIMENTS.md body)
//	admbench -bench               # executor benchmarks + the perf gates
//	                              # (internal/experiments/gates.go); exit 1
//	                              # on a failed gate, 2 on an unreadable one
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"github.com/adm-project/adm/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "", "run a single experiment by id")
		list     = flag.Bool("list", false, "list experiment ids")
		markdown = flag.Bool("markdown", false, "emit markdown instead of text tables")
		bench    = flag.Bool("bench", false, "run the executor benchmarks and check the perf gates (same-run ratios, exact counts)")
		rows     = flag.Int("rows", 20000, "benchmark rows per join side")
		workers  = flag.String("workers", "1,2,4,8", "comma-separated worker counts")
		repeats  = flag.Int("repeats", 3, "benchmark repetitions (best run reported)")
		batch    = flag.Int("batch", 0, "exchange batch size in tuples (0 = default)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the benchmark to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile after the benchmark to this file")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-16s %s\n", r.ID, r.Desc)
		}
		return
	}

	if *bench {
		if *cpuProf != "" {
			f, err := os.Create(*cpuProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "admbench: cpuprofile: %v\n", err)
				os.Exit(2)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "admbench: cpuprofile: %v\n", err)
				os.Exit(2)
			}
		}
		code := runBench(*rows, *workers, *repeats, *batch)
		if *cpuProf != "" {
			pprof.StopCPUProfile()
		}
		if *memProf != "" {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "admbench: memprofile: %v\n", err)
				os.Exit(2)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "admbench: memprofile: %v\n", err)
				os.Exit(2)
			}
			f.Close()
		}
		os.Exit(code)
	}

	runners := experiments.All()
	if *exp != "" {
		r, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "admbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	failed := 0
	for _, r := range runners {
		rep, err := r.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "admbench: %s: %v\n", r.ID, err)
			failed++
			continue
		}
		if *markdown {
			fmt.Println(rep.Markdown())
		} else {
			fmt.Println(rep.String())
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runBench runs the executor benchmarks, prints every series' best
// repeat, and evaluates the gate table over this run's measurements.
// The exit status is the gates' verdict (experiments.CheckGates).
func runBench(rows int, workerList string, repeats, batch int) int {
	var workers []int
	for _, f := range strings.Split(workerList, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			fmt.Fprintf(os.Stderr, "admbench: bad -workers value %q\n", f)
			return 2
		}
		workers = append(workers, w)
	}
	if repeats < 1 {
		repeats = 1
	}
	var m experiments.Measurements
	for _, run := range []func() error{
		func() error { return experiments.RunParallelJoinBenchBatch(&m, rows, workers, repeats, batch) },
		func() error { return experiments.RunParallelSortBench(&m, rows, workers, repeats, batch) },
		func() error { return experiments.RunTopKBench(&m, rows, workers, repeats, batch) },
		func() error { return experiments.RunRecoveryBench(&m, rows, repeats) },
		func() error { return experiments.RunCommitBench(&m, []int{1, 4, 16}, 64, repeats) },
		func() error { return experiments.RunMultiJoinBench(&m, rows, 1, repeats) },
		func() error { return experiments.RunScanFilterBench(&m, rows, 4, repeats) },
		func() error { return experiments.RunSnapshotScanBench(&m, rows, 4, repeats) },
		func() error { return experiments.RunKeyedUpdateBench(&m, rows, repeats) },
	} {
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "admbench: bench: %v\n", err)
			return 1
		}
	}
	fmt.Printf("bench  rows=%d, best of %d (rows/sec; CommitTxn commits/sec; KeyedUpdate statements/sec; dotted names are counts and rates)\n", rows, repeats)
	for _, s := range m {
		fmt.Printf("  %-28s %14.2f\n", s.Name, slices.Max(s.Samples))
	}
	return experiments.CheckGates(os.Stdout, experiments.Gates, m)
}
