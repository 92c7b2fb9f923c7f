package mac

import (
	"testing"
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// These tests pin the SetPosition semantics for moves that happen while
// a transmission is in flight (the mobility epoch ticker does exactly
// that): the PPDU keeps its launch-time source geometry, and the busy
// indications it raised are released at exactly the nodes it raised them
// at — mirroring the PR 2 Retune ghost-event fix, where stale events had
// to be disowned rather than re-evaluated against new state.

// spatialAir builds a log-distance medium with a sender, a receiver in
// decode range, and a bystander in carrier-sense range.
func spatialAir(t *testing.T) (*sim.Engine, *Air, *Node, *Node, *Node) {
	t.Helper()
	eng := sim.New(1)
	air := NewAir(eng)
	air.Prop = LogDistance{}
	ch := spectrum.Chan(3, spectrum.W5)
	src := NewNode(eng, air, 1, ch, true)
	dst := NewNode(eng, air, 2, ch, false)
	by := NewNode(eng, air, 3, ch, false)
	src.SetPosition(Position{X: 0, Y: 0})
	dst.SetPosition(Position{X: 100, Y: 0})
	by.SetPosition(Position{X: 0, Y: 300})
	return eng, air, src, dst, by
}

// TestMoveMidFlightKeepsLaunchGeometry: the source teleports far away
// while its frame is on air. The frame must still be delivered (the
// wavefront left from the old position), and the bystander's carrier
// sense — raised at launch — must drop at the end, not hang forever.
func TestMoveMidFlightKeepsLaunchGeometry(t *testing.T) {
	eng, air, src, dst, by := spatialAir(t)
	got := 0
	dst.OnReceive = func(f phy.Frame, _ *Transmission) { got++ }

	tx := src.SendImmediate(phy.DataFrame(1, 2, 1000))
	if !air.SensedBusy(by.ID) {
		t.Fatal("bystander in CS range did not sense the launch")
	}
	// Move the source out of everyone's range mid-flight.
	eng.Schedule(tx.Start+tx.Duration()/2, func() {
		src.SetPosition(Position{X: 100e3, Y: 0})
	})
	eng.RunUntil(tx.End + 10*time.Millisecond)

	if got != 1 {
		t.Fatalf("delivered %d frames, want 1 (launch-time geometry)", got)
	}
	if air.SensedBusy(by.ID) {
		t.Fatal("bystander busy indication stranded after the source moved mid-flight")
	}
	if air.SensedBusy(dst.ID) {
		t.Fatal("receiver busy indication stranded after the source moved mid-flight")
	}
}

// TestMoveMidFlightDoesNotRescueFrame: the converse — a frame launched
// from out of range is not retroactively delivered (or sensed) because
// the source moved close before it ended. Only the next frame, launched
// from the new position, is.
func TestMoveMidFlightDoesNotRescueFrame(t *testing.T) {
	eng, air, src, dst, _ := spatialAir(t)
	src.SetPosition(Position{X: 10e3, Y: 0}) // far out of range
	got := 0
	dst.OnReceive = func(f phy.Frame, _ *Transmission) { got++ }

	tx := src.SendImmediate(phy.DataFrame(1, 2, 1000))
	if air.SensedBusy(dst.ID) {
		t.Fatal("out-of-range launch should not raise carrier sense")
	}
	eng.Schedule(tx.Start+tx.Duration()/2, func() {
		src.SetPosition(Position{X: 0, Y: 0})
	})
	eng.RunUntil(tx.End + time.Millisecond)
	if got != 0 {
		t.Fatalf("frame launched out of range was delivered after the move (got %d)", got)
	}
	if air.SensedBusy(dst.ID) {
		t.Fatal("spurious busy indication after an out-of-range launch finished")
	}

	tx2 := src.SendImmediate(phy.DataFrame(1, 2, 1000))
	eng.RunUntil(tx2.End + time.Millisecond)
	if got != 1 {
		t.Fatalf("frame launched from the new position not delivered (got %d)", got)
	}
}

// TestReceiverMoveMidFlightReleasesBusy: a node that walks out of range
// while a heard transmission is on air must still have its busy count
// released at the end — the pinned set, not a re-evaluated hears(),
// decides who is decremented.
func TestReceiverMoveMidFlightReleasesBusy(t *testing.T) {
	eng, air, src, _, by := spatialAir(t)

	tx := src.SendImmediate(phy.DataFrame(1, 2, 1000))
	if !air.SensedBusy(by.ID) {
		t.Fatal("bystander did not sense the launch")
	}
	eng.Schedule(tx.Start+tx.Duration()/2, func() {
		by.SetPosition(Position{X: 100e3, Y: 0})
	})
	eng.RunUntil(tx.End + time.Millisecond)
	if air.SensedBusy(by.ID) {
		t.Fatal("busy indication stranded on a receiver that moved away mid-flight")
	}
	// And the moved node's MAC can proceed: a fresh transmission from it
	// must go out (no stuck deferral).
	far := NewNode(eng, air, 9, spectrum.Chan(3, spectrum.W5), false)
	far.SetPosition(Position{X: 100e3 + 50, Y: 0})
	rx := 0
	far.OnReceive = func(f phy.Frame, _ *Transmission) { rx++ }
	tx3 := by.SendImmediate(phy.DataFrame(3, 9, 200))
	eng.RunUntil(tx3.End + time.Millisecond)
	if rx != 1 {
		t.Fatalf("moved node's fresh transmission not delivered at its new position (got %d)", rx)
	}
}

// TestRxPowerFollowsMovesAndIsSymmetric: RxPower is the model's loss
// between the endpoints' current positions, before and after a move,
// and the same in both directions.
func TestRxPowerFollowsMovesAndIsSymmetric(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	prop := LogDistance{ShadowSigmaDB: 6, Seed: 42}
	air.Prop = prop

	air.SetPosition(1, Position{X: 0, Y: 0})
	air.SetPosition(2, Position{X: 250, Y: 0})
	want := DefaultTxPowerDBm - prop.LossDB(Position{}, Position{X: 250})
	if got := air.RxPower(1, 2, DefaultTxPowerDBm); got != want {
		t.Fatalf("RxPower = %v, want %v", got, want)
	}
	// Move and verify the earlier link budget is not served.
	air.SetPosition(2, Position{X: 900, Y: 0})
	want = DefaultTxPowerDBm - prop.LossDB(Position{}, Position{X: 900})
	if got := air.RxPower(1, 2, DefaultTxPowerDBm); got != want {
		t.Fatalf("post-move RxPower = %v, want %v", got, want)
	}
	if air.RxPower(2, 1, DefaultTxPowerDBm) != want {
		t.Fatal("RxPower is not symmetric")
	}
}
