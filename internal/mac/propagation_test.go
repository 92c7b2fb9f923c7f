package mac

import (
	"math"
	"testing"
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

func testChannel() spectrum.Channel { return spectrum.Chan(3, spectrum.W5) }

// deliverCount runs one data frame from src to dst with the nodes at the
// given distance under LogDistance and reports whether it was delivered.
func deliveredAtDistance(t *testing.T, d float64) (delivered, sensed bool) {
	t.Helper()
	eng := sim.New(1)
	air := NewAir(eng)
	air.Prop = LogDistance{}
	ch := testChannel()
	src := NewNode(eng, air, 1, ch, true)
	dst := NewNode(eng, air, 2, ch, false)
	src.SetPosition(Position{0, 0})
	dst.SetPosition(Position{d, 0})
	got := 0
	dst.OnReceive = func(f phy.Frame, _ *Transmission) { got++ }
	src.SendImmediate(phy.DataFrame(1, 2, 200))
	eng.RunUntil(time.Millisecond)
	sensedMid := air.SensedBusy(2)
	eng.Run()
	return got > 0, sensedMid
}

func TestLogDistanceRanges(t *testing.T) {
	// Defaults: 16 dBm tx, ref 28 dB @ 1 m, exponent 3.
	//   decode needs rx >= -85 dBm  -> d <~ 271 m
	//   carrier sense  rx >= -90 dBm -> d <~ 398 m
	cases := []struct {
		d                  float64
		wantDecode, wantCS bool
	}{
		{10, true, true},
		{250, true, true},
		{350, false, true},
		{500, false, false},
	}
	for _, c := range cases {
		gotDecode, gotCS := deliveredAtDistance(t, c.d)
		if gotDecode != c.wantDecode || gotCS != c.wantCS {
			t.Errorf("d=%.0fm: decode=%v cs=%v, want decode=%v cs=%v",
				c.d, gotDecode, gotCS, c.wantDecode, c.wantCS)
		}
	}
}

func TestFlatPropagationMatchesNilModel(t *testing.T) {
	// A medium with explicit FlatPropagation and huge positions must
	// behave exactly like the default nil model: full power everywhere.
	eng := sim.New(1)
	air := NewAir(eng)
	air.Prop = FlatPropagation{}
	ch := testChannel()
	src := NewNode(eng, air, 1, ch, true)
	dst := NewNode(eng, air, 2, ch, false)
	src.SetPosition(Position{0, 0})
	dst.SetPosition(Position{1e6, 1e6})
	got := 0
	dst.OnReceive = func(f phy.Frame, _ *Transmission) { got++ }
	src.SendImmediate(phy.DataFrame(1, 2, 200))
	eng.Run()
	if got != 1 {
		t.Fatalf("flat propagation dropped a frame at distance: got %d deliveries", got)
	}
	if rx := air.RxPower(1, 2, DefaultTxPowerDBm); rx != DefaultTxPowerDBm {
		t.Fatalf("flat RxPower = %v, want %v", rx, DefaultTxPowerDBm)
	}
}

func TestLogDistanceShadowingDeterministicAndSymmetric(t *testing.T) {
	l := LogDistance{ShadowSigmaDB: 8, Seed: 42}
	a := Position{10, 20}
	b := Position{300, -40}
	first := l.LossDB(a, b)
	for i := 0; i < 3; i++ {
		if got := l.LossDB(a, b); got != first {
			t.Fatalf("shadowed loss not deterministic: %v then %v", first, got)
		}
	}
	if got := l.LossDB(b, a); got != first {
		t.Fatalf("shadowed loss not symmetric: %v vs %v", l.LossDB(a, b), got)
	}
	other := LogDistance{ShadowSigmaDB: 8, Seed: 43}
	if other.LossDB(a, b) == first {
		t.Fatalf("different seeds produced identical shadowing draw")
	}
	noShadow := LogDistance{}
	if d := math.Abs(l.LossDB(a, b) - noShadow.LossDB(a, b)); d == 0 || d > 6*8 {
		t.Fatalf("shadowing offset %v dB implausible", d)
	}
}

func TestLogDistanceClampsBelowReference(t *testing.T) {
	l := LogDistance{}
	p := Position{5, 5}
	if got := l.LossDB(p, p); got != DefaultRefLossDB {
		t.Fatalf("co-located loss = %v, want reference loss %v", got, DefaultRefLossDB)
	}
}

func TestBusyFractionObserverRelative(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	air.Prop = LogDistance{}
	ch := testChannel()
	src := NewNode(eng, air, 1, ch, true)
	src.SetPosition(Position{0, 0})
	// Observer ids with positions but no MAC attachment (scanner-style).
	air.SetPosition(50, Position{100, 0}) // near: inside CS range
	air.SetPosition(51, Position{900, 0}) // far: outside CS range
	src.SendImmediate(phy.DataFrame(1, phy.Broadcast, 1000))
	eng.Run()
	from, to := time.Duration(0), 20*time.Millisecond
	u := ch.Center
	ideal := air.BusyFractionAt(IdealObserver, u, from, to, nil)
	near := air.BusyFractionAt(50, u, from, to, nil)
	far := air.BusyFractionAt(51, u, from, to, nil)
	if ideal <= 0 {
		t.Fatalf("ideal busy fraction = %v, want > 0", ideal)
	}
	if near != ideal {
		t.Errorf("near observer busy = %v, want ideal %v", near, ideal)
	}
	if far != 0 {
		t.Errorf("far observer busy = %v, want 0 (below CS threshold)", far)
	}
	if aps := air.ActiveAPsAt(50, u, from, to, nil); aps != 1 {
		t.Errorf("near observer sees %d APs, want 1", aps)
	}
	if aps := air.ActiveAPsAt(51, u, from, to, nil); aps != 0 {
		t.Errorf("far observer sees %d APs, want 0", aps)
	}
}

// swapShort and swapLong are a short- and a long-range model for the
// Prop swap tests: 900 m is beyond swapShort's carrier-sense range
// (about 400 m) and 800 m beyond its interference range (about 580 m),
// while swapLong reaches both (about 1.3 km and 2.1 km).
var swapShort, swapLong = LogDistance{}, LogDistance{Exponent: 2.5}

// TestCSRangeFollowsPropSwap swaps Air.Prop between two scans of each
// observation query, on a fresh medium per query: the second scan must
// use the new model's carrier-sense radius, not the one cached under
// the old model.
func TestCSRangeFollowsPropSwap(t *testing.T) {
	const far = 900.0
	if r := swapShort.MaxRangeFor(DefaultTxPowerDBm, DefaultCSThresholdDBm); r >= far {
		t.Fatalf("short model's carrier-sense range %v m reaches %v m", r, far)
	}
	if rx := DefaultTxPowerDBm - swapLong.LossDB(Position{}, Position{far, 0}); rx < DefaultCSThresholdDBm {
		t.Fatalf("long model delivers %v dBm at %v m, below carrier sense", rx, far)
	}
	from, to, u := time.Duration(0), 20*time.Millisecond, testChannel().Center
	queries := []struct {
		name  string
		heard func(air *Air, ideal float64) bool
	}{
		{"BusyFractionAt", func(air *Air, ideal float64) bool { return air.BusyFractionAt(51, u, from, to, nil) == ideal }},
		{"ActiveAPsAt", func(air *Air, _ float64) bool { return air.ActiveAPsAt(51, u, from, to, nil) == 1 }},
		{"ObservationAt", func(air *Air, ideal float64) bool {
			busy, aps := air.ObservationAt(51, from, to, nil)
			return busy[u] == ideal && aps[u] == 1
		}},
	}
	for _, q := range queries {
		eng := sim.New(1)
		air := NewAir(eng)
		air.Prop = swapShort
		src := NewNode(eng, air, 1, testChannel(), true)
		src.SetPosition(Position{0, 0})
		air.SetPosition(51, Position{far, 0})
		src.SendImmediate(phy.DataFrame(1, phy.Broadcast, 1000))
		eng.Run()
		ideal := air.BusyFractionAt(IdealObserver, u, from, to, nil)
		if ideal <= 0 {
			t.Fatalf("ideal busy fraction = %v, want > 0", ideal)
		}
		if q.heard(air, ideal) {
			t.Fatalf("%s: observer at %v m hears the source under the short model", q.name, far)
		}
		air.Prop = swapLong
		if !q.heard(air, ideal) {
			t.Errorf("%s: after the swap to the long model the observer at %v m still hears nothing", q.name, far)
		}
	}
}

// TestNoiseRangeFollowsPropSwap swaps Air.Prop between two rounds of
// the same overlapping pair of frames: the second round's interference
// scan must use the new model's noise radius, so the far interferer
// that the short model could not hear collides under the long one.
func TestNoiseRangeFollowsPropSwap(t *testing.T) {
	const far = 800.0
	if r := swapShort.MaxRangeFor(DefaultTxPowerDBm, NoiseFloorDBm); r >= far {
		t.Fatalf("short model's interference range %v m reaches %v m", r, far)
	}
	if rx := DefaultTxPowerDBm - swapLong.LossDB(Position{}, Position{far, 0}); rx < NoiseFloorDBm {
		t.Fatalf("long model delivers %v dBm at %v m, below the noise floor", rx, far)
	}
	eng := sim.New(1)
	air := NewAir(eng)
	air.Prop = swapShort
	ch := testChannel()
	a := NewNode(eng, air, 1, ch, false)
	r := NewNode(eng, air, 2, ch, false)
	i := NewNode(eng, air, 3, ch, false)
	a.SetPosition(Position{0, 0})
	r.SetPosition(Position{100, 0})
	i.SetPosition(Position{100 + far, 0})
	got := 0
	r.OnReceive = func(f phy.Frame, _ *Transmission) {
		if f.Src == 1 {
			got++
		}
	}
	round := func() {
		a.SendImmediate(phy.DataFrame(1, 2, 1000))
		i.SendImmediate(phy.DataFrame(3, phy.Broadcast, 1000))
		eng.Run()
	}
	round()
	if got != 1 {
		t.Fatalf("short model: receiver decoded %d frames with the interferer %v m away, want 1", got, far)
	}
	air.Prop = swapLong
	round()
	if got != 1 {
		t.Fatalf("long model: receiver decoded a frame through an interferer %v m away that the new model hears", far)
	}
}

func TestHiddenTerminalCollisionAtMiddleReceiver(t *testing.T) {
	// A at 0, B at 500 m: out of carrier-sense range of each other
	// (range ~398 m), both inside decode range of R at 250 m. When both
	// transmit overlapping frames, R decodes neither.
	eng := sim.New(1)
	air := NewAir(eng)
	air.Prop = LogDistance{}
	ch := testChannel()
	a := NewNode(eng, air, 1, ch, false)
	b := NewNode(eng, air, 2, ch, false)
	r := NewNode(eng, air, 3, ch, false)
	a.SetPosition(Position{0, 0})
	b.SetPosition(Position{500, 0})
	r.SetPosition(Position{250, 0})
	got := 0
	r.OnReceive = func(f phy.Frame, _ *Transmission) { got++ }
	// Neither sender senses the other, so both go on air immediately.
	a.SendImmediate(phy.DataFrame(1, phy.Broadcast, 1000))
	if air.SensedBusy(2) {
		t.Fatalf("B senses A at 500 m; hidden-terminal setup broken")
	}
	if !air.SensedBusy(3) {
		t.Fatalf("R does not sense A at 250 m")
	}
	b.SendImmediate(phy.DataFrame(2, phy.Broadcast, 1000))
	eng.Run()
	if got != 0 {
		t.Fatalf("middle receiver decoded %d frames during a hidden-terminal collision, want 0", got)
	}
}
