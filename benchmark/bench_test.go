package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// declared is the part of BENCHMARK.json the smoke test holds the
// program to.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

type declaredMetric struct{ Name, Unit string }

// TestSmoke runs every workload in both modes on a 300-row dataset
// with a few dozen operations and checks the contract between the
// program and BENCHMARK.json: same workloads, same metric names and
// units, every answer right, no WAL traffic on read workloads, and
// per-layer self times that add up to the round trip.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	out := t.TempDir()

	for i := range workloads {
		w := &workloads[i]
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, decl.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			rep, err := run(w, config{seed: 7, seconds: 0.2, items: 300, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, problems %v", w.name, traced, rep.Attempted, rep.Failed, rep.Problems)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			got := map[string]metric{}
			for _, m := range rep.Metrics {
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s: metric %s emitted twice", w.name, m.Name)
				}
				got[m.Name] = m
				if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("%s: metric %q unit %q is outside the contract's alphabet", w.name, m.Name, m.Unit)
				}
			}
			for _, d := range want {
				if m, ok := got[d.Name]; !ok {
					t.Errorf("%s trace=%v: %s is declared and not emitted", w.name, traced, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.Name, m.Unit, d.Unit)
				}
				delete(got, d.Name)
			}
			for name := range got {
				t.Errorf("%s trace=%v: %s is emitted and not declared", w.name, traced, name)
			}
			if err := writeFiles(out, rep, nil, 7, 0.2); err != nil {
				t.Error(err)
			}
			if !traced {
				continue
			}

			v := map[string]float64{}
			for _, m := range rep.Metrics {
				v[m.Name] = m.Value
			}
			if !w.writes && (v["storage.wal_bytes_per_op"] != 0 || v["storage.wal_appends_per_op"] != 0) {
				t.Errorf("%s: a read workload wrote %v WAL bytes per op", w.name, v["storage.wal_bytes_per_op"])
			}
			if w.writes && v["storage.wal_bytes_per_op"] == 0 {
				t.Errorf("%s: a write workload wrote no WAL", w.name)
			}
			// The one assertion on timings: the layers' self times add
			// up to the round trip. At 300 rows a statement takes tens
			// of microseconds and a scheduling hiccup is worth 10%, so
			// a miss is re-measured before it counts.
			ratio := v["bench.reconcile_ratio"]
			for attempt := 0; attempt < 2 && math.Abs(ratio-1) > 0.10; attempt++ {
				again, err := run(w, config{seed: 7, seconds: 0.2, items: 300, trace: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range again.Metrics {
					if m.Name == "bench.reconcile_ratio" {
						ratio = m.Value
					}
				}
			}
			if math.Abs(ratio-1) > 0.10 {
				t.Errorf("%s: self times add up to %.3f of server.roundtrip_ms (%.4f ms)", w.name, ratio, v["server.roundtrip_ms"])
			}
			if len(rep.Spans) == 0 {
				t.Errorf("%s: no spans recorded", w.name)
			}
			if _, err := os.Stat(filepath.Join(out, "trace_"+w.name+".json")); err != nil {
				t.Error(err)
			}
		}
	}
}
