package radio

import (
	"math/rand"
	"testing"
	"time"

	"whitefi/internal/incumbent"
	"whitefi/internal/iq"
	"whitefi/internal/mac"
	"whitefi/internal/phy"
	"whitefi/internal/sift"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// spatialTraffic puts a short burst of frames on the air from a node at
// the origin and returns the medium.
func spatialTraffic(eng *sim.Engine) (*mac.Air, spectrum.Channel) {
	air := mac.NewAir(eng)
	air.Prop = mac.LogDistance{}
	ch := spectrum.Chan(3, spectrum.W5)
	n := mac.NewNode(eng, air, 1, ch, true)
	n.SetPosition(mac.Position{X: 0, Y: 0})
	for i := 0; i < 5; i++ {
		i := i
		eng.Schedule(time.Duration(i)*5*time.Millisecond, func() {
			n.SendImmediate(phy.DataFrame(1, phy.Broadcast, 1000))
		})
	}
	eng.Run()
	return air, ch
}

// TestScannerCalibrateForDetectsDistantTransmitter pins the
// amplitude-aware threshold path: a scanner whose threshold was set for
// strong nearby signals misses a transmitter near the edge of its
// range; recalibrating for the received power at that range recovers
// the pulses, and the calibrated threshold stays above the rendered
// noise ceiling so the sparse scan path remains valid.
func TestScannerCalibrateForDetectsDistantTransmitter(t *testing.T) {
	eng := sim.New(5)
	air, ch := spatialTraffic(eng)
	air.SetPosition(90, mac.Position{X: 150, Y: 0})
	s := NewScanner(air, 90, rand.New(rand.NewSource(9)))
	s.Cfg.Threshold = 15 // calibrated for near-full-power signals
	res := s.ScanChannel(ch.Center, 0, 30*time.Millisecond)
	if len(res.Pulses) != 0 {
		t.Fatalf("high threshold detected %d pulses at 150 m, want 0", len(res.Pulses))
	}
	s.CalibrateFor(air.RxPower(1, 90, mac.DefaultTxPowerDBm))
	if s.Cfg.Threshold <= iq.MaxNoiseAmplitude() {
		t.Fatalf("calibrated threshold %v not above noise ceiling %v", s.Cfg.Threshold, iq.MaxNoiseAmplitude())
	}
	res = s.ScanChannel(ch.Center, 0, 30*time.Millisecond)
	if len(res.Pulses) < 4 {
		t.Fatalf("calibrated scanner found %d pulses, want >= 4", len(res.Pulses))
	}
	if res.Airtime <= 0 {
		t.Fatal("calibrated scanner estimated zero airtime")
	}
}

// TestScannerDetectionRangeFinite: the same traffic scanned from beyond
// the SIFT cliff yields nothing, even though an ideal observer sees it.
func TestScannerDetectionRangeFinite(t *testing.T) {
	eng := sim.New(5)
	air, ch := spatialTraffic(eng)
	air.SetPosition(91, mac.Position{X: 600, Y: 0})
	s := NewScanner(air, 91, rand.New(rand.NewSource(9)))
	res := s.ScanChannel(ch.Center, 0, 30*time.Millisecond)
	if len(res.Pulses) != 0 {
		t.Fatalf("scanner at 600 m detected %d pulses, want 0", len(res.Pulses))
	}
	if got := air.BusyFractionAt(mac.IdealObserver, ch.Center, 0, 30*time.Millisecond, nil); got <= 0 {
		t.Fatalf("ideal accounting sees no traffic (%v); test setup broken", got)
	}
}

// TestSensorStationSplitsMaps: one station, two sensor positions, two
// different spectrum maps — the geometry-derived spatial variation.
func TestSensorStationSplitsMaps(t *testing.T) {
	prop := mac.LogDistance{}
	st := &incumbent.Station{Channel: 7, Pos: mac.Position{X: 600, Y: 0}, PowerDBm: 0}
	base := spectrum.Map{}
	near := &IncumbentSensor{Base: base, Pos: mac.Position{X: 100, Y: 0},
		Stations: []*incumbent.Station{st}, Prop: prop, DetectThresholdDBm: -110}
	far := &IncumbentSensor{Base: base, Pos: mac.Position{X: 0, Y: 0},
		Stations: []*incumbent.Station{st}, Prop: prop, DetectThresholdDBm: -110}
	if !near.CurrentMap().Occupied(7) {
		t.Error("sensor 500 m from the station does not mark its channel occupied")
	}
	if far.CurrentMap().Occupied(7) {
		t.Error("sensor 600 m from the station marks its channel occupied (footprint ends near 540 m)")
	}
	// Flat medium (nil Prop): every station is audible everywhere,
	// matching the legacy locale-map behaviour.
	flat := &IncumbentSensor{Base: base, Stations: []*incumbent.Station{st}, DetectThresholdDBm: -110}
	if !flat.CurrentMap().Occupied(7) {
		t.Error("flat-medium sensor misses the station")
	}
}

// TestTrueAirtimeObserverRelative: the same medium measured by a near
// and a far observer yields different airtime on the same channel.
func TestTrueAirtimeObserverRelative(t *testing.T) {
	eng := sim.New(5)
	air, ch := spatialTraffic(eng)
	air.SetPosition(50, mac.Position{X: 100, Y: 0})
	air.SetPosition(51, mac.Position{X: 900, Y: 0})
	nearSrc := &TrueAirtime{Air: air, Observer: 50}
	farSrc := &TrueAirtime{Air: air, Observer: 51}
	idealSrc := &TrueAirtime{Air: air}
	nearAt, _ := nearSrc.Measure(0, 30*time.Millisecond, -1)
	farAt, _ := farSrc.Measure(0, 30*time.Millisecond, -1)
	idealAt, _ := idealSrc.Measure(0, 30*time.Millisecond, -1)
	u := ch.Center
	if idealAt[u] <= 0 {
		t.Fatal("ideal observer measured zero airtime")
	}
	if nearAt[u] != idealAt[u] {
		t.Errorf("near observer airtime %v != ideal %v", nearAt[u], idealAt[u])
	}
	if farAt[u] != 0 {
		t.Errorf("far observer airtime %v, want 0", farAt[u])
	}
}

// TestThresholdForProperties pins the calibration helper's contract.
func TestThresholdForProperties(t *testing.T) {
	noise := iq.MaxNoiseAmplitude()
	strong := sift.ThresholdFor(1000, noise)
	mid := sift.ThresholdFor(10, noise)
	if !(strong > mid) {
		t.Errorf("threshold not monotone in expected amplitude: %v <= %v", strong, mid)
	}
	for _, amp := range []float64{0.1, noise, 10, 1000} {
		th := sift.ThresholdFor(amp, noise)
		if th <= noise {
			t.Errorf("ThresholdFor(%v) = %v, not above the noise ceiling %v", amp, th, noise)
		}
		if amp > noise && th >= amp {
			t.Errorf("ThresholdFor(%v) = %v, at or above the signal itself", amp, th)
		}
	}
	if got := sift.ThresholdFor(100, 0); got != sift.DefaultThreshold {
		t.Errorf("zero noise ceiling: got %v, want default %v", got, sift.DefaultThreshold)
	}
}
