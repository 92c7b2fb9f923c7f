package sift

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"whitefi/internal/iq"
	"whitefi/internal/mac"
	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// synth builds a sample stream with rectangular pulses of the given
// (start, duration) pairs at the given amplitude over light noise.
func synth(n int, amp float64, pulses []Pulse, rng *rand.Rand) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64() * 0.5
	}
	for _, p := range pulses {
		for i := iq.SampleIndex(p.Start); i < iq.SampleIndex(p.End) && i < n; i++ {
			s[i] = amp * (0.8 + 0.4*rng.Float64())
		}
	}
	return s
}

func TestDetectSinglePulse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := Pulse{Start: 100 * time.Microsecond, End: 600 * time.Microsecond}
	s := synth(2000, 100, []Pulse{want}, rng)
	got := DetectPulses(s, Config{})
	if len(got) != 1 {
		t.Fatalf("pulses = %v", got)
	}
	if d := got[0].Start - want.Start; d < -5*time.Microsecond || d > 5*time.Microsecond {
		t.Errorf("start error %v", d)
	}
	if d := got[0].Duration() - want.Duration(); d < -8*time.Microsecond || d > 8*time.Microsecond {
		t.Errorf("duration error %v", d)
	}
}

func TestDetectMultiplePulsesWithSIFSGap(t *testing.T) {
	// A 10us gap (the minimum SIFS) must separate pulses: the window of
	// 5 samples is chosen to be below it.
	rng := rand.New(rand.NewSource(2))
	p1 := Pulse{Start: 50 * time.Microsecond, End: 300 * time.Microsecond}
	p2 := Pulse{Start: 310 * time.Microsecond, End: 360 * time.Microsecond}
	s := synth(1000, 100, []Pulse{p1, p2}, rng)
	got := DetectPulses(s, Config{})
	if len(got) != 2 {
		t.Fatalf("pulses = %v, want 2 (SIFS gap smoothed away?)", got)
	}
}

func TestWindowWiderThanSIFSMergesPulses(t *testing.T) {
	// Ablation check: a window larger than the minimum SIFS (10
	// samples) merges data and ACK — the reason the paper uses 5.
	rng := rand.New(rand.NewSource(3))
	p1 := Pulse{Start: 50 * time.Microsecond, End: 300 * time.Microsecond}
	p2 := Pulse{Start: 310 * time.Microsecond, End: 360 * time.Microsecond}
	s := synth(1000, 100, []Pulse{p1, p2}, rng)
	got := DetectPulses(s, Config{Window: 25})
	if len(got) != 1 {
		t.Fatalf("pulses = %v, want 1 merged with huge window", got)
	}
}

func TestNoiseOnlyNoPulses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := synth(50000, 0, nil, rng)
	if got := DetectPulses(s, Config{}); len(got) != 0 {
		t.Errorf("false pulses in noise: %v", got)
	}
}

func TestShortStreamsAndSpikes(t *testing.T) {
	if DetectPulses(nil, Config{}) != nil {
		t.Error("nil stream")
	}
	if DetectPulses([]float64{5, 5}, Config{}) != nil {
		t.Error("stream shorter than window")
	}
	// A 1-sample spike must be suppressed.
	s := make([]float64, 100)
	s[50] = 1000
	if got := DetectPulses(s, Config{}); len(got) != 0 {
		t.Errorf("spike detected as pulse: %v", got)
	}
}

func TestPulseOpenAtStreamEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := Pulse{Start: 500 * time.Microsecond, End: 2 * time.Millisecond}
	s := synth(1000, 100, []Pulse{p}, rng) // stream ends at ~1.024ms
	got := DetectPulses(s, Config{})
	if len(got) != 1 {
		t.Fatalf("pulses = %v", got)
	}
	if got[0].End < 900*time.Microsecond {
		t.Errorf("open pulse truncated at %v", got[0].End)
	}
}

// renderExchange puts a data+ACK exchange on a fresh medium and renders it.
func renderExchange(t *testing.T, w spectrum.Width, bytes int, seed int64) []float64 {
	t.Helper()
	eng := sim.New(seed)
	air := mac.NewAir(eng)
	a := mac.NewNode(eng, air, 1, spectrum.Chan(10, w), true)
	mac.NewNode(eng, air, 2, spectrum.Chan(10, w), false)
	a.Send(phy.DataFrame(1, 2, bytes))
	eng.RunUntil(50 * time.Millisecond)
	r := iq.NewRenderer(air, 99, rand.New(rand.NewSource(seed)))
	return r.Render(10, 0, 50*time.Millisecond)
}

func TestMatchExchangeInfersWidth(t *testing.T) {
	for _, w := range spectrum.Widths {
		s := renderExchange(t, w, 1000, int64(w))
		pulses := DetectPulses(s, Config{})
		dets := MatchExchanges(pulses)
		if len(dets) != 1 {
			t.Fatalf("width %v: detections = %v (pulses %v)", w, dets, pulses)
		}
		if dets[0].Width != w {
			t.Errorf("width %v inferred as %v", w, dets[0].Width)
		}
		if dets[0].Kind != DataAck {
			t.Errorf("width %v classified as %v", w, dets[0].Kind)
		}
	}
}

func TestMatchBeaconCTS(t *testing.T) {
	eng := sim.New(11)
	air := mac.NewAir(eng)
	ch := spectrum.Chan(10, spectrum.W10)
	ap := mac.NewNode(eng, air, 1, ch, true)
	// Beacon then CTS-to-self one SIFS later, as WhiteFi APs do. Step
	// the engine until the beacon transmission completes, then inject
	// the CTS a SIFS later (the core package automates this pairing).
	ap.Send(phy.BeaconFrame(1, nil))
	var beaconEnd time.Duration
	for eng.Step() {
		for _, tx := range air.History() {
			if tx.Frame.Kind == phy.KindBeacon && tx.End <= eng.Now() {
				beaconEnd = tx.End
			}
		}
		if beaconEnd > 0 {
			break
		}
	}
	if beaconEnd == 0 {
		t.Fatal("beacon never aired")
	}
	eng.Schedule(beaconEnd+phy.SIFS(ch.Width), func() {
		air.Transmit(1, ch, phy.CTSFrame(1), mac.DefaultTxPowerDBm, true)
	})
	eng.RunUntil(20 * time.Millisecond)
	r := iq.NewRenderer(air, 99, rand.New(rand.NewSource(11)))
	s := r.Render(10, 0, 20*time.Millisecond)
	dets := MatchExchanges(DetectPulses(s, Config{}))
	if len(dets) != 1 || dets[0].Kind != BeaconCTS || dets[0].Width != spectrum.W10 {
		t.Fatalf("detections = %v, want one beacon+cts at 10MHz", dets)
	}
}

func TestNoFalseWidthOnIsolatedPulses(t *testing.T) {
	// Two data-length pulses separated by far more than any SIFS must
	// not match.
	rng := rand.New(rand.NewSource(6))
	p1 := Pulse{Start: 100 * time.Microsecond, End: 500 * time.Microsecond}
	p2 := Pulse{Start: 2 * time.Millisecond, End: 2400 * time.Microsecond}
	s := synth(4000, 100, []Pulse{p1, p2}, rng)
	if dets := MatchExchanges(DetectPulses(s, Config{})); len(dets) != 0 {
		t.Errorf("false match: %v", dets)
	}
}

func TestAirtimeUtilization(t *testing.T) {
	pulses := []Pulse{
		{Start: 0, End: 100 * time.Microsecond},
		{Start: 200 * time.Microsecond, End: 400 * time.Microsecond},
	}
	got := AirtimeUtilization(pulses, time.Millisecond)
	if got < 0.29 || got > 0.31 {
		t.Errorf("utilization = %v, want 0.3", got)
	}
	if AirtimeUtilization(nil, time.Second) != 0 {
		t.Error("empty pulses should be 0")
	}
	if AirtimeUtilization(pulses, 0) != 0 {
		t.Error("zero window should be 0")
	}
	// Saturation clamps at 1.
	big := []Pulse{{Start: 0, End: 2 * time.Second}}
	if AirtimeUtilization(big, time.Second) != 1 {
		t.Error("utilization should clamp at 1")
	}
}

func TestSIFTAirtimeMatchesGroundTruth(t *testing.T) {
	// The SIFT airtime estimate must agree with the medium's ground
	// truth within a few percent — this justifies using ground-truth
	// airtime in the large QualNet-style simulations.
	eng := sim.New(21)
	air := mac.NewAir(eng)
	ch := spectrum.Chan(10, spectrum.W10)
	a := mac.NewNode(eng, air, 1, ch, true)
	mac.NewNode(eng, air, 2, ch, false)
	cbr := mac.NewCBR(eng, a, 2, 1000, 4*time.Millisecond)
	cbr.Start()
	eng.RunUntil(time.Second)
	r := iq.NewRenderer(air, 99, rand.New(rand.NewSource(21)))
	s := r.Render(10, 0, time.Second)
	est := AirtimeUtilization(DetectPulses(s, Config{}), time.Second)
	truth := air.BusyFractionAt(mac.IdealObserver, 10, 0, time.Second, nil)
	if diff := est - truth; diff < -0.03 || diff > 0.03 {
		t.Errorf("SIFT airtime %v vs truth %v", est, truth)
	}
}

func TestCountMatching(t *testing.T) {
	w := spectrum.W20
	want := phy.Airtime(w, 1034)
	pulses := []Pulse{
		{Start: 0, End: want},                        // exact
		{Start: 0, End: want * 97 / 100},             // -3%
		{Start: 0, End: want / 2},                    // way short
		{Start: 0, End: want * 2},                    // way long
		{Start: 0, End: want + 50*time.Microsecond},  // slightly long
		{Start: 0, End: want - 300*time.Microsecond}, // ~-22%
	}
	got := CountMatching(pulses, w, 1034, 0.10, 0.10)
	if got != 3 {
		t.Errorf("matched %d, want 3", got)
	}
}

func TestEstimateAPs(t *testing.T) {
	interval := 100 * time.Millisecond
	mk := func(phase time.Duration, n int) []Detection {
		var out []Detection
		for i := 0; i < n; i++ {
			start := time.Duration(i)*interval + phase
			out = append(out, Detection{
				Kind:  BeaconCTS,
				First: Pulse{Start: start, End: start + time.Millisecond},
			})
		}
		return out
	}
	one := mk(10*time.Millisecond, 5)
	if got := EstimateAPs(one, interval, 5*time.Millisecond); got != 1 {
		t.Errorf("one AP estimated as %d", got)
	}
	two := append(mk(10*time.Millisecond, 5), mk(60*time.Millisecond, 5)...)
	if got := EstimateAPs(two, interval, 5*time.Millisecond); got != 2 {
		t.Errorf("two APs estimated as %d", got)
	}
	if got := EstimateAPs(nil, interval, 5*time.Millisecond); got != 0 {
		t.Errorf("no detections estimated as %d", got)
	}
	// Data detections don't count.
	data := []Detection{{Kind: DataAck, First: Pulse{Start: 0, End: time.Millisecond}}}
	if got := EstimateAPs(data, interval, 5*time.Millisecond); got != 0 {
		t.Errorf("data-only estimated as %d", got)
	}
}

func TestChirpRoundTrip(t *testing.T) {
	for v := 0; v <= ChirpMaxValue; v += 7 {
		d := ChirpAirtime(v)
		got, ok := DecodeChirp(d)
		if !ok || got != v {
			t.Errorf("chirp %d decoded as %d, %v", v, got, ok)
		}
		// With a few microseconds of edge jitter it still decodes.
		got, ok = DecodeChirp(d + 6*time.Microsecond)
		if !ok || got != v {
			t.Errorf("chirp %d with jitter decoded as %d, %v", v, got, ok)
		}
	}
}

func TestChirpRejectsNonChirps(t *testing.T) {
	if _, ok := DecodeChirp(10 * time.Microsecond); ok {
		t.Error("tiny pulse decoded as chirp")
	}
	if _, ok := DecodeChirp(phy.Preamble(ChirpWidth)); ok {
		t.Error("preamble-length pulse decoded as chirp")
	}
	huge := ChirpAirtime(ChirpMaxValue) + 100*time.Millisecond
	if _, ok := DecodeChirp(huge); ok {
		t.Error("overlong pulse decoded as chirp")
	}
}

func TestEncodeChirpClamps(t *testing.T) {
	if EncodeChirpBytes(-5) != ChirpBaseBytes {
		t.Error("negative value should clamp to 0")
	}
	if EncodeChirpBytes(10_000) != ChirpBaseBytes+ChirpMaxValue*ChirpStepBytes {
		t.Error("huge value should clamp to max")
	}
}

func TestFindChirpsEndToEnd(t *testing.T) {
	eng := sim.New(31)
	air := mac.NewAir(eng)
	backup := spectrum.Chan(20, spectrum.W5)
	mac.NewNode(eng, air, 1, backup, false)
	v := 42
	f := phy.Frame{Kind: phy.KindChirp, Src: 1, Dst: phy.Broadcast, Bytes: EncodeChirpBytes(v)}
	air.Transmit(1, backup, f, mac.DefaultTxPowerDBm, true)
	eng.RunUntil(100 * time.Millisecond)
	r := iq.NewRenderer(air, 99, rand.New(rand.NewSource(31)))
	s := r.Render(20, 0, 50*time.Millisecond)
	vals := FindChirps(DetectPulses(s, Config{}))
	if len(vals) != 1 || vals[0] != v {
		t.Errorf("chirps decoded = %v, want [42]", vals)
	}
}

// Property: every synthetic pulse longer than the window and separated by
// at least a SIFS is found by the detector, with approximately correct
// edges.
func TestQuickAllPulsesFound(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + int(n%8)
		var want []Pulse
		cursor := 50 * time.Microsecond
		for i := 0; i < count; i++ {
			dur := time.Duration(30+rng.Intn(400)) * time.Microsecond
			want = append(want, Pulse{Start: cursor, End: cursor + dur})
			cursor += dur + time.Duration(15+rng.Intn(300))*time.Microsecond
		}
		nSamples := iq.SampleIndex(cursor) + 100
		s := synth(nSamples, 50+rng.Float64()*1000, want, rng)
		got := DetectPulses(s, Config{})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			ds := got[i].Start - want[i].Start
			if ds < -6*time.Microsecond || ds > 6*time.Microsecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
