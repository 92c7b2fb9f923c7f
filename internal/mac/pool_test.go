package mac

import (
	"testing"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// oneTransmission puts a single broadcast on an otherwise idle medium
// and returns the air, its slot index and its generation-checked handle.
func oneTransmission(t *testing.T) (*Air, *sim.Engine, int32, TxHandle) {
	t.Helper()
	eng := sim.New(1)
	air := NewAir(eng)
	air.SetPosition(1, Position{})
	air.Transmit(1, spectrum.Chan(3, spectrum.W5), phy.DataFrame(1, phy.Broadcast, 500), DefaultTxPowerDBm, true)
	slot := int32(len(air.txSlots) - 1)
	return air, eng, slot, packTxHandle(slot, air.txSlotGen[slot])
}

// TestTxHandleUseAfterFreePanics is the use-after-free tripwire: once a
// transmission finishes and its arena slot is recycled, a retained
// handle must report dead and dereferencing it must panic — including
// after the slot has been reused by a newer transmission.
func TestTxHandleUseAfterFreePanics(t *testing.T) {
	air, eng, slot, h := oneTransmission(t)
	if !air.TxAlive(h) {
		t.Fatal("handle dead while transmission in flight")
	}
	if air.TxOf(h) != air.txSlots[slot] {
		t.Fatal("TxOf resolved to the wrong record")
	}
	eng.Run() // end event fires; slot returns to the free list
	if air.TxAlive(h) {
		t.Fatal("handle still alive after its transmission finished")
	}

	// Reuse the slot for a fresh transmission: the stale handle must
	// still be dead (generation mismatch), not resolve to the newcomer.
	air.Transmit(1, spectrum.Chan(3, spectrum.W5), phy.DataFrame(1, phy.Broadcast, 500), DefaultTxPowerDBm, true)
	if air.TxAlive(h) {
		t.Fatal("stale handle came back alive on slot reuse")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TxOf on a stale handle did not panic")
		}
	}()
	air.TxOf(h)
}

// TestTxHandleDoubleFreePanics: freeing an already-recycled slot must
// panic rather than corrupt the free list (a double-entry would hand
// the same slot to two live transmissions).
func TestTxHandleDoubleFreePanics(t *testing.T) {
	air, eng, slot, _ := oneTransmission(t)
	eng.Run() // finish frees the slot
	defer func() {
		if recover() == nil {
			t.Fatal("double free of an arena slot did not panic")
		}
	}()
	air.freeTx(slot)
}
