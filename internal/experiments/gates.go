// The perf gates of `admbench -bench`. There is one kind: a value is
// read against a witness measured by the same process in the same
// run, so a gate means the same thing on every host. Absolute
// throughput is the wire benchmark's job (benchmark/, paired against
// the parent commit on every PR); nothing here compares a time or a
// rate with a constant.
package experiments

import (
	"fmt"
	"io"
)

// Series is one named measurement of a bench run, one sample per
// repeat: a throughput for a timed bench, a count for a counter.
// Benches that are gated against each other interleave their variants
// inside every repeat, so sample i of both series saw the same host
// load.
type Series struct {
	Name    string
	Samples []float64
}

// Measurements is everything one run measured, in measurement order.
type Measurements []Series

// Add appends one repeat's sample to the named series.
func (m *Measurements) Add(name string, v float64) {
	for i := range *m {
		if (*m)[i].Name == name {
			(*m)[i].Samples = append((*m)[i].Samples, v)
			return
		}
	}
	*m = append(*m, Series{Name: name, Samples: []float64{v}})
}

// Get returns the named series' samples, nil when it was not measured.
func (m Measurements) Get(name string) []float64 {
	for _, s := range m {
		if s.Name == name {
			return s.Samples
		}
	}
	return nil
}

// series names a timed bench's throughput series: bench/workers.
func series(bench string, workers int) string {
	return fmt.Sprintf("%s/%d", bench, workers)
}

// Gate is one row of the table below.
type Gate struct {
	Name    string
	Value   string // the series under test
	Witness string // the same-run series it is read against
	// Floor > 0: a ratio gate — the best same-repeat Value/Witness
	// must reach it (one quiet repeat proves the mechanism works).
	// Floor == 0: an exact count — every Value sample must equal the
	// Witness sample of its repeat.
	Floor float64
	Why   string // what a failure means
}

// Gates is every perf gate `admbench -bench` enforces. The floors sit
// between the degenerate point (ratio 1.0: the mechanism is off) and
// the smallest value observed on a 2-vCPU box, including the runs in
// which a neighbour held one of the two cores throughout.
var Gates = []Gate{
	{"join-scaling", "ParallelJoin/4", "ParallelJoin/1", 0.7,
		"4 workers cost more than they return (1.0 is the ceiling on one core)"},
	{"sort-vs-serial", "ParallelSort/4", "SerialSort/1", 1.2,
		"typed-key runs + loser-tree merge no faster than sort.SliceStable over boxed Compare (the comparator win alone reads ~1.4 on one core)"},
	{"group-commit", "CommitTxn/16", "CommitTxn/1", 2,
		"16 sessions no longer share fsync barriers: group commit degenerated to fsync per commit"},
	{"filter-kernels", "ScanFilter/4", "ScanFilterBoxed/4", 2,
		"kernel path no faster than boxed: kernels bypassed or zone-map pruning dead"},
	{"snapshot-scan", "SnapshotScan/4", "BlindScan/4", 0.79,
		"a snapshot scan costs more than a blind one: the page verdict no longer admits a one-loader page whole (judged row by row it reads 0.54-1.32 on two cores), or a latch or a map is back on the visibility path (an RWMutex over a map reads 0.11-0.14 on two cores); with the verdict it reads 0.94-1.86 on two cores"},
	{"dml-by-key", "KeyedUpdateBig/1", "KeyedUpdate/1", 0.5,
		"a keyed one-row UPDATE slows with the size of its table: it scans for its row, or the log device copies itself per append (either reads ~0.125 here)"},
	{"greedy-order", "MultiJoinGreedy/1", "MultiJoinDecl/1", 3,
		"greedy join ordering no longer rescues the mis-declared order"},
	{"adaptive-reroute", "MultiJoinAdapt/1", "MultiJoinDecl/1", 3,
		"the safe-point router no longer recovers from stale statistics"},
	{"redo-scan-wal", "RecoveryWAL.scanned", "RecoveryWAL.appends", 0,
		"recovery read a different number of log records than the fixture appended"},
	{"redo-replay-wal", "RecoveryWAL.replayed", "RecoveryWAL.tail", 0,
		"without a checkpoint every logged record must be replayed exactly once"},
	{"redo-scan-ckpt", "RecoveryCkpt.scanned", "RecoveryCkpt.appends", 0,
		"recovery read a different number of log records than the fixture appended"},
	{"redo-replay-ckpt", "RecoveryCkpt.replayed", "RecoveryCkpt.tail", 0,
		"records from before the checkpoint were replayed instead of loaded as frames"},
}

// eval reads the gate off m and renders the reading for the verdict
// line. err means the gate could not be read at all.
func (g Gate) eval(m Measurements) (ok bool, reading string, err error) {
	v, w := m.Get(g.Value), m.Get(g.Witness)
	if len(v) == 0 {
		return false, "", fmt.Errorf("%s was not measured", g.Value)
	}
	if len(w) != len(v) {
		return false, "", fmt.Errorf("witness %s has %d samples for the %d of %s", g.Witness, len(w), len(v), g.Value)
	}
	if g.Floor == 0 {
		for i := range v {
			if v[i] != w[i] {
				return false, fmt.Sprintf("%s = %.0f, %s = %.0f", g.Value, v[i], g.Witness, w[i]), nil
			}
		}
		return true, fmt.Sprintf("%s = %.0f = %s", g.Value, v[0], g.Witness), nil
	}
	best := 0.0
	for i := range v {
		best = max(best, v[i]/w[i])
	}
	return best >= g.Floor, fmt.Sprintf("%s / %s = %.2f (floor %.2f)", g.Value, g.Witness, best, g.Floor), nil
}

// CheckGates evaluates every gate against m, prints one verdict line
// per gate and returns the process exit status: 1 when any gate
// failed; otherwise 2 when one could not be read (a missing witness is
// an error, never a pass); otherwise 0. Every gate is evaluated, so a
// failure is never masked by a later missing measurement.
func CheckGates(out io.Writer, gates []Gate, m Measurements) int {
	failed, unread := false, false
	for _, g := range gates {
		ok, reading, err := g.eval(m)
		switch {
		case err != nil:
			unread = true
			fmt.Fprintf(out, "gate %-17s ERROR  %v\n", g.Name, err)
		case ok:
			fmt.Fprintf(out, "gate %-17s ok     %s\n", g.Name, reading)
		default:
			failed = true
			fmt.Fprintf(out, "gate %-17s FAIL   %s: %s\n", g.Name, reading, g.Why)
		}
	}
	switch {
	case failed:
		return 1
	case unread:
		return 2
	}
	return 0
}
