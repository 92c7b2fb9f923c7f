package mac

import (
	"fmt"
	"testing"
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// TestPooledMediumEventIdentical is the arena safety property: on the
// same randomized spatial worlds the cull property test uses, the
// pooled transmission arena must produce exactly the same ordered
// sequence of busy transitions and deliveries as the NoPool escape
// hatch (a fresh never-recycled allocation per Transmit). Pooling is a
// storage strategy; it must never appear in the event log.
func TestPooledMediumEventIdentical(t *testing.T) {
	models := []struct {
		name string
		prop Propagation
	}{
		{"flat", FlatPropagation{}},
		{"logdistance", LogDistance{}},
		{"shadowed", LogDistance{ShadowSigmaDB: 8, Seed: 97}},
	}
	for _, m := range models {
		for seed := int64(1); seed <= 4; seed++ {
			// Cross with culling so the pooled fan-out is pinned on both
			// the culled and brute-force delivery paths.
			for _, noCull := range []bool{false, true} {
				name := fmt.Sprintf("%s/seed%d/noCull%v", m.name, seed, noCull)
				pooled := worldEvents(m.prop, seed, worldConfig{noCull: noCull})
				unpooled := worldEvents(m.prop, seed, worldConfig{noCull: noCull, noPool: true})
				if len(pooled) == 0 {
					t.Fatalf("%s: empty event log, world generates no traffic", name)
				}
				if len(pooled) != len(unpooled) {
					t.Fatalf("%s: event count diverged: pooled %d vs NoPool %d", name, len(pooled), len(unpooled))
				}
				for i := range pooled {
					if pooled[i] != unpooled[i] {
						t.Fatalf("%s: event %d diverged:\n  pooled: %s\n  NoPool: %s", name, i, pooled[i], unpooled[i])
					}
				}
			}
		}
	}
}

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

// TestNoPoolTransmitNeverRecycles pins the escape hatch's contract: a
// record returned under NoPool stays valid (and untouched by later
// traffic) after its transmission ends.
func TestNoPoolTransmitNeverRecycles(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	air.NoPool = true
	air.SetPosition(1, Position{})
	tx := air.Transmit(1, spectrum.Chan(3, spectrum.W5), phy.DataFrame(1, phy.Broadcast, 500), DefaultTxPowerDBm, true)
	uid, end := tx.UID, tx.End
	eng.RunUntil(end + time.Second)
	air.Transmit(1, spectrum.Chan(3, spectrum.W5), phy.DataFrame(1, phy.Broadcast, 500), DefaultTxPowerDBm, true)
	eng.Run()
	if tx.UID != uid || len(air.txSlots) != 0 {
		t.Fatalf("NoPool record recycled: uid %d -> %d, arena slots %d", uid, tx.UID, len(air.txSlots))
	}
}
