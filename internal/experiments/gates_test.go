package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// observed is a synthetic three-repeat run at the values measured on
// the 2-vCPU box the floors were sized on (throughputs per repeat;
// the recovery counts are the 20000-row fixture's).
func observed() Measurements {
	return Measurements{
		{"ParallelJoin/1", []float64{3.1e6, 3.4e6, 3.3e6}},
		{"ParallelJoin/4", []float64{4.6e6, 5.0e6, 4.1e6}},
		{"SerialSort/1", []float64{1.10e6, 1.16e6, 1.12e6}},
		{"ParallelSort/4", []float64{2.7e6, 3.1e6, 1.9e6}},
		{"CommitTxn/1", []float64{905, 911, 899}},
		{"CommitTxn/16", []float64{5400, 5628, 5100}},
		{"ScanFilterBoxed/4", []float64{7.0e7, 7.4e7, 6.6e7}},
		{"ScanFilter/4", []float64{2.9e8, 3.1e8, 2.5e8}},
		{"BlindScan/4", []float64{1.56e8, 1.49e8, 1.55e8}},
		{"SnapshotScan/4", []float64{1.63e8, 1.52e8, 1.60e8}},
		{"KeyedUpdate/1", []float64{9.1e4, 9.6e4, 8.8e4}},
		{"KeyedUpdateBig/1", []float64{8.0e4, 8.9e4, 7.7e4}},
		{"MultiJoinDecl/1", []float64{3.6e5, 3.7e5, 3.5e5}},
		{"MultiJoinGreedy/1", []float64{3.0e6, 3.4e6, 2.9e6}},
		{"MultiJoinAdapt/1", []float64{2.8e6, 3.0e6, 2.6e6}},
		{"RecoveryWAL.scanned", []float64{20254, 20254, 20254}},
		{"RecoveryWAL.appends", []float64{20254, 20254, 20254}},
		{"RecoveryWAL.replayed", []float64{20254, 20254, 20254}},
		{"RecoveryWAL.tail", []float64{20254, 20254, 20254}},
		{"RecoveryCkpt.scanned", []float64{20255, 20255, 20255}},
		{"RecoveryCkpt.appends", []float64{20255, 20255, 20255}},
		{"RecoveryCkpt.replayed", []float64{0, 0, 0}},
		{"RecoveryCkpt.tail", []float64{0, 0, 0}},
	}
}

// with returns m with the named series replaced (removed when samples
// is nil).
func with(m Measurements, name string, samples []float64) Measurements {
	var out Measurements
	for _, s := range m {
		if s.Name != name {
			out = append(out, s)
		}
	}
	if samples != nil {
		out = append(out, Series{name, samples})
	}
	return out
}

func TestGates(t *testing.T) {
	if got := CheckGates(io.Discard, Gates, observed()); got != 0 {
		t.Fatalf("observed run: exit status %d, want 0", got)
	}
	for _, g := range Gates {
		one := []Gate{g}
		m := observed()
		// The degenerate point: the mechanism under test does nothing,
		// so the value reads what its witness reads (ratio 1.0: kernels
		// bypassed, fsync per commit, declared order executed, no
		// speed-up over the serial sort). A floor under 1.0 tolerates
		// that by design — one core — and fails on a net loss; a count
		// fails when the log is read twice. dml-by-key's floor is the
		// net-loss point itself (a deeper index may cost up to half), so
		// it fails at what its own text predicts: a scan for one row in
		// an 8×-larger table reads an eighth.
		var degenerate []float64
		for i, w := range m.Get(g.Witness) {
			switch {
			case g.Floor == 0:
				degenerate = append(degenerate, 2*m.Get(g.Value)[i]+1)
			case g.Floor <= 0.5:
				degenerate = append(degenerate, w/8)
			case g.Floor < 1:
				degenerate = append(degenerate, w/2)
			default:
				degenerate = append(degenerate, w)
			}
		}
		for _, tc := range []struct {
			name string
			m    Measurements
			want int
		}{
			{"observed", m, 0},
			{"degenerate", with(m, g.Value, degenerate), 1},
			{"witness absent", with(m, g.Witness, nil), 2},
			{"witness short a repeat", with(m, g.Witness, m.Get(g.Witness)[:2]), 2},
			{"value absent", with(m, g.Value, nil), 2},
		} {
			if got := CheckGates(io.Discard, one, tc.m); got != tc.want {
				t.Errorf("%s, %s: exit status %d, want %d", g.Name, tc.name, got, tc.want)
			}
		}
	}
}

// A failed gate must stay a failure (status 1, FAIL printed) when a
// later gate cannot be read — and when an earlier one cannot, too.
func TestGateFailureIsNotMasked(t *testing.T) {
	m := observed()
	for i, broken := range Gates {
		for j, unread := range Gates {
			if i == j || broken.Value == unread.Value || broken.Value == unread.Witness {
				continue
			}
			bad := with(with(m, broken.Value, []float64{1, 1, 1}), unread.Value, nil)
			var out bytes.Buffer
			if got := CheckGates(&out, Gates, bad); got != 1 {
				t.Fatalf("%s failing, %s unread: exit status %d, want 1\n%s", broken.Name, unread.Name, got, &out)
			}
			for _, want := range []string{broken.Name + " ", "FAIL", unread.Name + " ", "ERROR"} {
				if !strings.Contains(out.String(), want) {
					t.Fatalf("%s failing, %s unread: output lacks %q\n%s", broken.Name, unread.Name, want, &out)
				}
			}
		}
	}
	if got := CheckGates(io.Discard, Gates, with(m, "SerialSort/1", nil)); got != 2 {
		t.Fatalf("only a witness missing: exit status %d, want 2", got)
	}
}
