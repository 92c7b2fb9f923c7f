package fault

import (
	"math/rand"
	"time"

	"whitefi/internal/dynamics"
	"whitefi/internal/mac"
	"whitefi/internal/phy"
	"whitefi/internal/sim"
)

// Gilbert–Elliott parameters: a mostly-clean channel with sub-second
// fade bursts. The good state is lossless; the bad state drops about a
// third of the frames.
const (
	DefaultGEMeanGood = 5 * time.Second        // mean sojourn in the good state
	DefaultGEMeanBad  = 300 * time.Millisecond // mean sojourn in the bad state
	geLossBad         = 0.35                   // per-delivery drop probability while bad
)

// GilbertElliott is a bursty-loss overlay on a mac.Air medium: while
// started, it owns the medium's DropFilter and suppresses candidate
// deliveries with the current state's loss probability. State flips are
// engine events with exponential holding times; both the flips and the
// per-delivery draws come from the overlay's own seeded RNG, consumed
// in deterministic engine order, so the loss realisation is a pure
// function of the seed. Carrier sense is unaffected — a dropped
// frame still occupied the air.
type GilbertElliott struct {
	// Drops counts suppressed deliveries; Deliveries counts the ones
	// let through.
	Drops      int
	Deliveries int

	eng      *sim.Engine
	air      *mac.Air
	rng      *rand.Rand
	bad      bool
	running  bool
	detached bool
	ev       sim.Handle
	flipFn   func() // bound once so rescheduling does not allocate
}

// NewGilbertElliott creates a stopped overlay for air.
func NewGilbertElliott(eng *sim.Engine, air *mac.Air, seed int64) *GilbertElliott {
	g := &GilbertElliott{eng: eng, air: air, rng: rand.New(rand.NewSource(seed))}
	g.flipFn = g.flip
	return g
}

// Bad reports whether the channel is currently in the bad state.
func (g *GilbertElliott) Bad() bool { return g.bad }

// Start installs the overlay (replacing any previous DropFilter on the
// medium) and begins state flips from the good state.
func (g *GilbertElliott) Start() {
	if g.running {
		return
	}
	g.running = true
	g.detached = false
	g.bad = false
	g.air.DropFilter = g.filter
	g.ev = g.eng.After(dynamics.ExpHolding(g.rng, DefaultGEMeanGood), g.flipFn)
}

// StartDetached begins state flips without claiming the medium's
// DropFilter. A detached overlay only drops what is routed to it
// through FilterFrame — the mode a multiplexed filter needs when one
// medium hosts several independently-faded regions (e.g. the tiles of
// a sharded storm): each region gets its own overlay, each overlay's
// RNG is consumed only by its region's flips and deliveries, and the
// realisation per region is therefore invariant to how many regions
// share the medium.
func (g *GilbertElliott) StartDetached() {
	if g.running {
		return
	}
	g.running = true
	g.detached = true
	g.bad = false
	g.ev = g.eng.After(dynamics.ExpHolding(g.rng, DefaultGEMeanGood), g.flipFn)
}

// FilterFrame applies the overlay's per-delivery loss draw to one
// candidate delivery, exactly as the installed DropFilter would —
// returning true suppresses the delivery. It is the routing target for
// detached overlays behind a caller-owned multiplexer.
func (g *GilbertElliott) FilterFrame(f phy.Frame, src, dst int) bool {
	return g.filter(f, src, dst)
}

// Stop uninstalls the overlay (when it owns the medium filter) and
// halts state flips.
func (g *GilbertElliott) Stop() {
	if !g.running {
		return
	}
	g.running = false
	if !g.detached {
		g.air.DropFilter = nil
	}
	g.eng.Cancel(g.ev)
	g.ev = sim.Handle{}
}

func (g *GilbertElliott) flip() {
	if !g.running {
		return
	}
	g.bad = !g.bad
	mean := DefaultGEMeanGood
	if g.bad {
		mean = DefaultGEMeanBad
	}
	g.ev = g.eng.After(dynamics.ExpHolding(g.rng, mean), g.flipFn)
}

func (g *GilbertElliott) filter(phy.Frame, int, int) bool {
	// The good state is lossless and draws nothing.
	if g.bad && g.rng.Float64() < geLossBad {
		g.Drops++
		return true
	}
	g.Deliveries++
	return false
}
