package exp

import (
	"testing"
	"time"
)

// TestDenseCityMediumCullEquivalence pins the scenario-level face of
// the culling contract: the dense-city medium load delivers exactly
// the frames an unculled medium delivers. The pinned counts were read
// when the medium still carried an all-nodes brute-force mode and both
// modes delivered them. (The event-level property lives in
// internal/mac's reference-medium comparison; this catches any
// scenario wiring that would break it.)
func TestDenseCityMediumCullEquivalence(t *testing.T) {
	for _, c := range []struct{ seed, want int64 }{{1, 1082}, {2, 1571}} {
		if got := DenseCityMediumLoad(40, c.seed); got != c.want {
			t.Fatalf("seed %d: delivered %d frames, want %d", c.seed, got, c.want)
		}
	}
}

// TestDenseCityAdapts runs a small city and checks the assignment
// machinery does its job: traffic flows, every AP ends near its locally
// optimal channel, and the interference-free fraction beats what the
// Markov mics would allow a width-20 static pick (4 spanned channels ×
// duty, uncorrected).
func TestDenseCityAdapts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second dense-deployment run")
	}
	r := DenseCityRun(DenseCityConfig{APs: 40, Seed: 11, Measure: 6 * time.Second})
	if r.Nodes != 120 {
		t.Fatalf("nodes = %d, want 120", r.Nodes)
	}
	if r.GoodputMbps <= 1 {
		t.Errorf("aggregate goodput = %.2f Mbps, want > 1", r.GoodputMbps)
	}
	if r.MChamQuality < 0.6 {
		t.Errorf("MCham quality = %.3f, want >= 0.6 (assignment rounds not tracking)", r.MChamQuality)
	}
	if r.InterferenceFreeFrac < 0.6 {
		t.Errorf("interference-free fraction = %.3f, want >= 0.6", r.InterferenceFreeFrac)
	}
}

// TestDenseCity1000Nodes30s is the scale acceptance: a 1000+-node city
// completes a 30 s virtual-time run with the adaptation metrics intact.
func TestDenseCity1000Nodes30s(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale 30 s virtual-time run")
	}
	r := DenseCityRun(DenseCityConfig{APs: 334, Seed: 3, Settle: 2 * time.Second, Measure: 28 * time.Second})
	if r.Nodes < 1000 {
		t.Fatalf("nodes = %d, want >= 1000", r.Nodes)
	}
	if r.GoodputMbps <= 10 {
		t.Errorf("aggregate goodput = %.2f Mbps, want > 10", r.GoodputMbps)
	}
	if r.MChamQuality < 0.5 {
		t.Errorf("MCham quality = %.3f, want >= 0.5", r.MChamQuality)
	}
	if r.InterferenceFreeFrac < 0.6 {
		t.Errorf("interference-free fraction = %.3f, want >= 0.6", r.InterferenceFreeFrac)
	}
	t.Logf("30 s city run: %d nodes over %.1f km², %.1f Mbps, quality %.3f, ifree %.3f, %.2f switches/BSS, wall %v",
		r.Nodes, r.AreaKm2, r.GoodputMbps, r.MChamQuality, r.InterferenceFreeFrac, r.SwitchesPerBSS, r.WallClock)
}
