package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// Every experiment must run clean and produce at least one row; the
// individual shape assertions below pin the headline results.
func TestAllExperimentsRun(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			rep, err := r.Run()
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if rep.ID != r.ID {
				t.Errorf("report id %q != runner id %q", rep.ID, r.ID)
			}
			if len(rep.Rows) == 0 {
				t.Fatal("empty report")
			}
			if !strings.Contains(rep.String(), rep.Title) {
				t.Error("String() missing title")
			}
			if !strings.Contains(rep.Markdown(), "| metric |") {
				t.Error("Markdown() missing header")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("table1"); !ok {
		t.Fatal("table1 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("phantom experiment")
	}
}

func rowValue(t *testing.T, rep *Report, name string) string {
	t.Helper()
	for _, r := range rep.Rows {
		if r.Name == name {
			return r.Measured
		}
	}
	t.Fatalf("row %q missing from %s: %+v", name, rep.ID, rep.Rows)
	return ""
}

func TestTable1Shape(t *testing.T) {
	rep, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if got := rowValue(t, rep, "Go!"); got != "73" {
		t.Fatalf("Go! = %s", got)
	}
	bsd, _ := strconv.Atoi(rowValue(t, rep, "BSD (Unix)"))
	mach, _ := strconv.Atoi(rowValue(t, rep, "Mach2.5"))
	l4, _ := strconv.Atoi(rowValue(t, rep, "L4"))
	if !(bsd > mach && mach > l4 && l4 > 73) {
		t.Fatalf("ordering: %d %d %d", bsd, mach, l4)
	}
}

func TestMemoryShape(t *testing.T) {
	rep, err := Memory()
	if err != nil {
		t.Fatal(err)
	}
	if got := rowValue(t, rep, "bytes/interface (ORB)"); got != "32" {
		t.Fatalf("bytes/interface = %s", got)
	}
}

func TestScenario2AdaptiveFaster(t *testing.T) {
	static, err := RunScenario2(false)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := RunScenario2(true)
	if err != nil {
		t.Fatal(err)
	}
	if !adaptive.Switched {
		t.Fatal("adaptive run never switched versions")
	}
	if adaptive.CompletionMS >= static.CompletionMS {
		t.Fatalf("adaptive %.0fms >= static %.0fms", adaptive.CompletionMS, static.CompletionMS)
	}
	if adaptive.BytesSent >= static.BytesSent {
		t.Fatalf("adaptive bytes %d >= static %d", adaptive.BytesSent, static.BytesSent)
	}
	if adaptive.Readings != static.Readings {
		t.Fatalf("readings %d vs %d", adaptive.Readings, static.Readings)
	}
}

func TestScenario3Shape(t *testing.T) {
	r, err := RunScenario3()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Replanned {
		t.Fatal("no replan")
	}
	if r.StaticRows != r.AdaptiveRows {
		t.Fatalf("rows %d vs %d", r.StaticRows, r.AdaptiveRows)
	}
	if r.PeakHashRows*4 > r.StaticPeak {
		t.Fatalf("peak %d not far below static %d", r.PeakHashRows, r.StaticPeak)
	}
}

func TestAdaptiveJoinsShape(t *testing.T) {
	r, err := RunAdaptiveJoins(400)
	if err != nil {
		t.Fatal(err)
	}
	if r.Symmetric.FirstOutputMS*10 > r.Blocking.FirstOutputMS {
		t.Fatalf("first output: sym %.0f vs blocking %.0f",
			r.Symmetric.FirstOutputMS, r.Blocking.FirstOutputMS)
	}
	if r.XJoin.IdleMS >= r.Blocking.IdleMS {
		t.Fatalf("xjoin idle %.0f >= blocking idle %.0f", r.XJoin.IdleMS, r.Blocking.IdleMS)
	}
}

func TestScenario2ModeFollowsAdaptivity(t *testing.T) {
	static, err := RunScenario2(false)
	if err != nil {
		t.Fatal(err)
	}
	if static.Mode != "docked" || static.Switched {
		t.Fatalf("static run: mode=%s switched=%v", static.Mode, static.Switched)
	}
	adaptive, err := RunScenario2(true)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Mode != "wireless" {
		t.Fatalf("adaptive run mode = %s", adaptive.Mode)
	}
}

func TestTable1SensitivityShape(t *testing.T) {
	rep, err := Table1Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 9 { // 3×3 grid
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if !strings.Contains(r.Note, "ordering holds") {
			t.Fatalf("row %s: %s", r.Name, r.Note)
		}
	}
}

// TestFailoverLosesAtMostOneInterval: device A dies past its last safe
// point, so the replica re-reads some rows, never more than one
// checkpoint interval's pages, and its SUM is exact.
func TestFailoverLosesAtMostOneInterval(t *testing.T) {
	rep, err := Failover()
	if err != nil {
		t.Fatal(err) // includes a resumed SUM that is not exact
	}
	var lost, interval int
	if _, err := fmt.Sscanf(rowValue(t, rep, "work lost"), "%d rows", &lost); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(rowValue(t, rep, "checkpoint interval"), "%d rows", &interval); err != nil {
		t.Fatal(err)
	}
	if lost <= 0 || lost > interval {
		t.Fatalf("work lost = %d rows, want 0 < lost <= %d (one interval)", lost, interval)
	}
	if got := rowValue(t, rep, "answer exact"); !strings.HasPrefix(got, "true") {
		t.Fatalf("answer exact = %s", got)
	}
}
