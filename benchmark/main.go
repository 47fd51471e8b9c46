// Command benchmark is the admsqld wire benchmark: it builds the
// server in-process exactly as cmd/admsqld does, loads a seeded
// dataset, drives it over loopback TCP with the shipped client, checks
// every answer and prints end-to-end metrics (-trace 0), per-layer
// metrics measured from outside the engine (-trace 1), or both.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "workload to run (default: all six)")
	seed := flag.Int64("seed", 1, "seed of the dataset and the statement streams")
	seconds := flag.Float64("seconds", 6, "length of the measured phase on the reference box; scales the fixed operation counts")
	trace := flag.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics and spans; -1: both, one run each")
	out := flag.String("out", "benchmark/out", "directory for <workload>.json and trace_<workload>.json")
	commit := flag.String("commit", "unknown", "commit id recorded in the output files")
	flag.Parse()

	if *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and there are no positional arguments")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*w}
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}

	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     *commit,
		"clients":    clients,
	}
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d %s commit=%s clients=%d (closed loop)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit, clients)

	allCorrect := true
	for i := range selected {
		w := &selected[i]
		line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
		for _, traced := range modes {
			rep, err := run(w, config{seed: *seed, seconds: *seconds, items: 12000, trace: traced})
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			printReport(rep)
			if err := writeFiles(*out, rep, host, *seed, *seconds); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
			line.Correct = line.Correct && rep.Correct
			line.Attempted += rep.Attempted
			line.Failed += rep.Failed
			for _, m := range rep.Metrics {
				line.Metrics[m.Name] = metricValue{m.Value, m.Unit}
			}
		}
		allCorrect = allCorrect && line.Correct
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// resultLine is the last line of standard output for one workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(rep *report) {
	mode := "end-to-end"
	if rep.Trace {
		mode = "per-layer"
	}
	fmt.Printf("== %s (%s): attempted=%d failed=%d correct=%v\n", rep.Workload, mode, rep.Attempted, rep.Failed, rep.Correct)
	for _, p := range rep.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	for _, m := range rep.Metrics {
		fmt.Printf("   %-36s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range rep.Notes {
		fmt.Printf("   (%s %.6g %s)\n", m.Name, m.Value, m.Unit)
	}
}

// writeFiles stores one report as <workload>[.layers].json and, in
// traced mode, the spans as trace_<workload>.json.
func writeFiles(dir string, rep *report, host map[string]any, seed int64, seconds float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, v any) error {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
	}
	name := rep.Workload + ".json"
	if rep.Trace {
		name = rep.Workload + ".layers.json"
		if err := write("trace_"+rep.Workload+".json", rep.Spans); err != nil {
			return err
		}
	}
	return write(name, map[string]any{
		"workload": rep.Workload, "seed": seed, "seconds": seconds, "host": host,
		"attempted": rep.Attempted, "failed": rep.Failed, "correct": rep.Correct,
		"problems": rep.Problems, "metrics": rep.Metrics, "notes": rep.Notes,
	})
}
