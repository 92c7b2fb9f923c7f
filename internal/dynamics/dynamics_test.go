package dynamics

import (
	"math"
	"testing"
	"time"

	"whitefi/internal/incumbent"
	"whitefi/internal/mac"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLinearTrajectory(t *testing.T) {
	l := Linear{Start: mac.Position{X: 10, Y: -5}, VX: 2, VY: 1}
	p := l.PositionAt(3 * time.Second)
	if !almost(p.X, 16, 1e-9) || !almost(p.Y, -2, 1e-9) {
		t.Fatalf("PositionAt(3s) = %+v, want (16,-2)", p)
	}
}

func TestWaypointsInterpolation(t *testing.T) {
	w := PathThrough(2*time.Second, 10, mac.Position{X: 0}, mac.Position{X: 100}, mac.Position{X: 100, Y: 50})
	// Holds the first point before the start.
	if p := w.PositionAt(0); p.X != 0 || p.Y != 0 {
		t.Fatalf("before start = %+v", p)
	}
	// Midway through the first leg (10 s at 10 m/s): t = 2s + 5s.
	if p := w.PositionAt(7 * time.Second); !almost(p.X, 50, 1e-6) {
		t.Fatalf("mid-leg = %+v, want x=50", p)
	}
	// Arrival at the second point at t = 12 s.
	if p := w.PositionAt(12 * time.Second); !almost(p.X, 100, 1e-6) || !almost(p.Y, 0, 1e-6) {
		t.Fatalf("at second point = %+v", p)
	}
	// Clamps at the end (second leg: 50 m, arrives t = 17 s).
	if p := w.PositionAt(time.Hour); !almost(p.X, 100, 1e-6) || !almost(p.Y, 50, 1e-6) {
		t.Fatalf("after end = %+v", p)
	}
}

// TestRandomWaypointDeterminism: the realised path is a pure function of
// the configuration — identical across instances and query orders.
func TestRandomWaypointDeterminism(t *testing.T) {
	mk := func() *RandomWaypoint {
		return &RandomWaypoint{
			Seed: 99, Min: mac.Position{X: -500, Y: -500}, Max: mac.Position{X: 500, Y: 500},
			SpeedMin: 5, SpeedMax: 20, Pause: 2 * time.Second,
		}
	}
	a, b := mk(), mk()
	// b is queried far ahead first, then backwards; a sequentially.
	pbLate := b.PositionAt(120 * time.Second)
	for ts := 0; ts <= 120; ts += 3 {
		at := time.Duration(ts) * time.Second
		pa, pb := a.PositionAt(at), b.PositionAt(at)
		if pa != pb {
			t.Fatalf("t=%v: query order changed the path: %+v vs %+v", at, pa, pb)
		}
	}
	if a.PositionAt(120*time.Second) != pbLate {
		t.Fatal("late query mismatch")
	}
	// The node must stay inside the box.
	for ts := 0; ts <= 300; ts++ {
		p := a.PositionAt(time.Duration(ts) * time.Second)
		if p.X < -500-1e-9 || p.X > 500+1e-9 || p.Y < -500-1e-9 || p.Y > 500+1e-9 {
			t.Fatalf("t=%ds: left the box: %+v", ts, p)
		}
	}
}

// TestActivityDeterminismAndDuty: identical seeds give byte-identical
// transition traces, and the long-run busy fraction approaches the
// configured duty cycle.
func TestActivityDeterminismAndDuty(t *testing.T) {
	run := func() *Activity {
		eng := sim.New(7)
		mic := incumbent.NewMic(eng, 3)
		act := NewDutyActivity(eng, mic, 0.3, 10*time.Second, 1234)
		act.Start()
		eng.RunUntil(30 * time.Minute)
		act.Stop()
		return act
	}
	a, b := run(), run()
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("transition %d differs: %+v vs %+v", i, a.Trace[i], b.Trace[i])
		}
	}
	if len(a.Trace) < 20 {
		t.Fatalf("only %d transitions in 30 min with a 10 s cycle", len(a.Trace))
	}
	frac := a.BusyFraction(30 * time.Minute)
	if !almost(frac, 0.3, 0.08) {
		t.Fatalf("busy fraction = %.3f, want ~0.30", frac)
	}
}

// TestUpdaterAppliesEpochs: positions land on the medium each epoch,
// sensors and stations ride along, and nothing moves after Stop.
func TestUpdaterAppliesEpochs(t *testing.T) {
	eng := sim.New(1)
	air := mac.NewAir(eng)
	air.Prop = mac.LogDistance{}

	sensor := &radio.IncumbentSensor{Prop: air.Prop}
	st := &incumbent.Station{Channel: 4, PowerDBm: 0}

	u := NewUpdater(eng, air, 250*time.Millisecond)
	u.Track(5, Linear{VX: 100}, sensor) // 100 m/s along +x
	u.TrackStation(st, Linear{Start: mac.Position{Y: 1000}, VY: -100})
	var hookTimes []time.Duration
	u.OnEpoch(func(now time.Duration) { hookTimes = append(hookTimes, now) })
	u.Start()

	eng.RunUntil(1 * time.Second)
	p := air.PositionOf(5)
	if !almost(p.X, 100, 1e-6) {
		t.Fatalf("node position after 1 s = %+v, want x=100", p)
	}
	if sensor.Pos != p {
		t.Fatalf("sensor position %+v did not track node position %+v", sensor.Pos, p)
	}
	if !almost(st.Pos.Y, 900, 1e-6) {
		t.Fatalf("station position after 1 s = %+v, want y=900", st.Pos)
	}
	if len(hookTimes) != 5 { // t=0 (Start) + 4 epochs
		t.Fatalf("epoch hooks fired %d times, want 5", len(hookTimes))
	}
	if pos, ok := u.PositionAt(5, 500*time.Millisecond); !ok || !almost(pos.X, 50, 1e-6) {
		t.Fatalf("Mobility.PositionAt = %+v/%v, want x=50", pos, ok)
	}

	u.Stop()
	eng.RunUntil(2 * time.Second)
	if air.PositionOf(5) != p {
		t.Fatal("updater kept moving nodes after Stop")
	}
}

// TestMovingStationSweepsFootprint: a station driving past a stationary
// sensor occupies its channel only while within detection range —
// the sensor's map genuinely changes over time.
func TestMovingStationSweepsFootprint(t *testing.T) {
	eng := sim.New(1)
	air := mac.NewAir(eng)
	air.Prop = mac.LogDistance{}

	st := &incumbent.Station{Channel: 6, PowerDBm: 0}
	sensor := &radio.IncumbentSensor{
		Stations: []*incumbent.Station{st}, Prop: air.Prop,
		DetectThresholdDBm: -110,
	}
	u := NewUpdater(eng, air, 100*time.Millisecond)
	// Drive from 2 km west to 2 km east of the sensor at 100 m/s; the
	// -110 dBm footprint of a 0 dBm station under the default model ends
	// near 540 m.
	u.TrackStation(st, Linear{Start: mac.Position{X: -2000}, VX: 100})
	u.Start()

	occupiedAt := func(at time.Duration) bool {
		eng.RunUntil(at)
		return sensor.CurrentMap().Occupied(6)
	}
	if occupiedAt(2 * time.Second) { // station ~1.8 km away
		t.Fatal("channel occupied with the station far away")
	}
	if !occupiedAt(20 * time.Second) { // station at the sensor
		t.Fatal("channel free with the station on top of the sensor")
	}
	if occupiedAt(38 * time.Second) { // station ~1.8 km past
		t.Fatal("channel still occupied after the station left")
	}
}
