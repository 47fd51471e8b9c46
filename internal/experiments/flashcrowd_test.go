package experiments

import "testing"

// TestFlashCrowdAdaptationHolds runs the live-server flash-crowd
// drive both ways and checks the acceptance shape: the adaptive
// ladder keeps crowd-phase p99 strictly below the static server's
// (which queues everything and lets latency explode), and it releases
// after the crowd leaves. The static run is the same-process witness
// — there is no absolute ceiling anywhere — and this test is the only
// place the pair is gated.
func TestFlashCrowdAdaptationHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-server drive")
	}
	adapt, static, err := RunFlashCrowdBench()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("adaptive: p99=%.1fms served=%d shed-recovery=%.2f", adapt.CrowdP99MS, adapt.CrowdServed, adapt.ShedRecovery)
	t.Logf("static:   p99=%.1fms served=%d", static.CrowdP99MS, static.CrowdServed)
	if adapt.CrowdP99MS <= 0 || static.CrowdP99MS <= 0 {
		t.Fatal("drive produced no latency samples")
	}
	if adapt.CrowdP99MS >= static.CrowdP99MS {
		t.Fatalf("adaptation did not help: adaptive p99 %.1fms >= static %.1fms", adapt.CrowdP99MS, static.CrowdP99MS)
	}
	if adapt.ShedRecovery < 0.5 {
		t.Fatalf("ladder failed to release after the crowd: shed recovery %.2f", adapt.ShedRecovery)
	}
}
