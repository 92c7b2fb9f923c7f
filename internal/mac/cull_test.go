package mac

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// recorder captures every observable medium event at one node: busy
// transitions (carrier sense) and clean deliveries. Every third unicast
// delivery is answered with a synchronous Transmit from inside the
// deliver callback — the re-entrant path a custom OnReceive hook using
// SendImmediate exercises, which must not corrupt an in-progress culled
// fan-out.
type recorder struct {
	id  int
	eng *sim.Engine
	air *Air
	log *[]string
}

func (r *recorder) mediumBusyChanged(busy bool) {
	*r.log = append(*r.log, fmt.Sprintf("%d busy=%v @%v", r.id, busy, r.eng.Now()))
}

func (r *recorder) deliver(f phy.Frame, tx *Transmission) {
	*r.log = append(*r.log, fmt.Sprintf("%d rx src=%d seq=%d uid=%d @%v", r.id, f.Src, f.Seq, tx.UID, r.eng.Now()))
	// Broadcast replies matter most: they fire while the medium is mid
	// broadcast-delivery fan-out, so the nested launch query runs inside
	// an in-progress culled iteration.
	if tx.UID%3 == 0 {
		r.air.Transmit(r.id, tx.Channel, phy.ACKFrame(r.id, f.Src), DefaultTxPowerDBm, true)
	}
}

// worldConfig selects the medium variant and the node pattern of one
// randomized world (see worldEvents).
type worldConfig struct {
	// noCull selects the brute-force fan-outs; noPool disables the
	// transmission arena (fresh Transmission per Transmit), the escape
	// hatch pool_test.go pins event-identical to the pooled path.
	noCull, noPool bool
	// churn replaces the default 14 nodes, attached in ascending id
	// order before any traffic, with 150 nodes of scattered ids,
	// attached in shuffled order after the grid exists (half of them
	// mid-run), and detaches and re-attaches nodes throughout the run.
	churn bool
	cellM float64 // forced grid cell edge; 0 auto-sizes
}

// cullWorldEvents runs one randomized spatial world — random placements,
// channels, broadcast/unicast traffic, and mid-run moves — and returns
// the full ordered event log. The world is a pure function of (prop,
// seed, noCull); culling must not appear in it.
func cullWorldEvents(prop Propagation, seed int64, noCull bool, cellM float64) []string {
	return worldEvents(prop, seed, worldConfig{noCull: noCull, cellM: cellM})
}

// worldEvents is cullWorldEvents with every variant of worldConfig
// selectable.
func worldEvents(prop Propagation, seed int64, cfg worldConfig) []string {
	const (
		nTx     = 300
		nMoves  = 120
		areaM   = 2500.0
		horizon = 2 * time.Second
	)
	nNodes := 14
	if cfg.churn {
		nNodes = 150
	}
	rng := rand.New(rand.NewSource(seed))
	eng := sim.New(seed)
	air := NewAir(eng)
	air.Prop = prop
	air.NoCull = cfg.noCull
	air.NoPool = cfg.noPool
	air.GridCellM = cfg.cellM

	var log []string
	channels := []spectrum.Channel{
		spectrum.Chan(3, spectrum.W5),
		spectrum.Chan(4, spectrum.W10), // overlaps uhf3: cross-width interference
		spectrum.Chan(10, spectrum.W5),
		spectrum.Chan(12, spectrum.W20),
	}
	ids := make([]int, nNodes)
	for i := range ids {
		ids[i] = 1 + i
	}
	if cfg.churn {
		// Build the grid while the medium is empty, so every attach
		// below inserts into a live index and shifts node indices.
		air.NodesNear(Position{}, 1)
		for i, v := range rng.Perm(1000)[:nNodes] {
			ids[i] = 1 + v
		}
	}
	recs := make([]*recorder, nNodes)
	for i, id := range ids {
		rec := &recorder{id: id, eng: eng, air: air, log: &log}
		recs[i] = rec
		air.SetPosition(id, Position{X: rng.Float64() * areaM, Y: rng.Float64() * areaM})
		ch, isAP := channels[rng.Intn(len(channels))], i%3 == 0
		if !cfg.churn || i < nNodes/2 {
			air.attach(id, ch, isAP, rec, rec.deliver)
			continue
		}
		at := time.Duration(rng.Int63n(int64(horizon)))
		eng.Schedule(at, func() { air.attach(id, ch, isAP, rec, rec.deliver) })
	}
	if cfg.churn {
		// Detach and re-attach nodes mid-run, on a fresh channel after
		// a gap. Overlapping pairs also detach absent nodes and attach
		// present ones (a same-id replace).
		for i := 0; i < 60; i++ {
			k := rng.Intn(nNodes)
			id, rec := ids[k], recs[k]
			ch := channels[rng.Intn(len(channels))]
			at := time.Duration(rng.Int63n(int64(horizon)))
			back := at + time.Duration(rng.Int63n(int64(200*time.Millisecond)))
			eng.Schedule(at, func() { air.detach(id) })
			eng.Schedule(back, func() { air.attach(id, ch, k%3 == 0, rec, rec.deliver) })
		}
	}
	for i := 0; i < nTx; i++ {
		src := ids[rng.Intn(len(ids))]
		ch := channels[rng.Intn(len(channels))]
		dst := phy.Broadcast
		if rng.Intn(2) == 0 {
			dst = ids[rng.Intn(len(ids))]
		}
		f := phy.DataFrame(src, dst, 100+rng.Intn(1200))
		at := time.Duration(rng.Int63n(int64(horizon)))
		noCS := rng.Intn(4) == 0
		eng.Schedule(at, func() { air.Transmit(src, ch, f, DefaultTxPowerDBm, noCS) })
	}
	for i := 0; i < nMoves; i++ {
		id := ids[rng.Intn(len(ids))]
		p := Position{X: rng.Float64() * areaM, Y: rng.Float64() * areaM}
		at := time.Duration(rng.Int63n(int64(horizon)))
		eng.Schedule(at, func() { air.SetPosition(id, p) })
	}
	eng.RunUntil(horizon + 100*time.Millisecond)
	return log
}

// TestCulledMediumEventIdentical is the culling safety property: on
// random spatial worlds — every propagation model, random channels,
// broadcasts and unicasts, nodes moving mid-flight — the culled medium
// produces exactly the same ordered sequence of busy transitions and
// deliveries as the brute-force all-nodes fan-out. MaxRangeFor is an
// upper bound, so culling may only skip work, never change an outcome.
func TestCulledMediumEventIdentical(t *testing.T) {
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
			// A small forced cell size stresses multi-cell queries; 0
			// exercises the auto-sized grid.
			for _, cell := range []float64{0, 150} {
				name := fmt.Sprintf("%s/seed%d/cell%v", m.name, seed, cell)
				brute := cullWorldEvents(m.prop, seed, true, cell)
				culled := cullWorldEvents(m.prop, seed, false, cell)
				sameWorldEvents(t, name, brute, culled)
				// Shuffled and mid-run attaches plus detach/re-attach
				// churn: the node indices the grid query orders by
				// shift under a live index.
				brute = worldEvents(m.prop, seed, worldConfig{noCull: true, churn: true, cellM: cell})
				culled = worldEvents(m.prop, seed, worldConfig{churn: true, cellM: cell})
				sameWorldEvents(t, name+"/churn", brute, culled)
			}
		}
	}
}

// sameWorldEvents fails the test unless the culled world's event log
// equals the brute-force one.
func sameWorldEvents(t *testing.T, name string, brute, culled []string) {
	t.Helper()
	if len(brute) == 0 {
		t.Fatalf("%s: empty event log, world generates no traffic", name)
	}
	if len(brute) != len(culled) {
		t.Fatalf("%s: event count diverged: brute %d vs culled %d", name, len(brute), len(culled))
	}
	for i := range brute {
		if brute[i] != culled[i] {
			t.Fatalf("%s: event %d diverged:\n  brute:  %s\n  culled: %s", name, i, brute[i], culled[i])
		}
	}
}

// TestObservationAtMatchesPerChannel pins the fused observation sweep
// against the per-channel queries it replaces: for random spatial
// traffic, observers and windows, ObservationAt must return exactly
// what 30 BusyFractionAt plus 30 ActiveAPsAt calls do.
func TestObservationAtMatchesPerChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	eng := sim.New(23)
	air := NewAir(eng)
	air.Prop = LogDistance{}
	for i := 1; i <= 6; i++ {
		air.SetPosition(i, Position{X: rng.Float64() * 800, Y: rng.Float64() * 800})
	}
	// Attach a couple of APs so AP counting has sources to classify.
	NewNode(eng, air, 1, spectrum.Chan(3, spectrum.W5), true)
	NewNode(eng, air, 2, spectrum.Chan(12, spectrum.W20), true)
	scatterTransmissions(air, eng, 400, 2*time.Second, rng)

	exclude := map[int]bool{3: true}
	for _, observer := range []int{IdealObserver, 1, 4} {
		for _, win := range [][2]time.Duration{
			{0, 2 * time.Second},
			{500 * time.Millisecond, 900 * time.Millisecond},
			{1900 * time.Millisecond, 2100 * time.Millisecond},
		} {
			at, aps := air.ObservationAt(observer, win[0], win[1], exclude)
			for u := spectrum.UHF(0); u < spectrum.NumUHF; u++ {
				wantAt := air.BusyFractionAt(observer, u, win[0], win[1], exclude)
				wantAPs := air.ActiveAPsAt(observer, u, win[0], win[1], exclude)
				if at[u] != wantAt {
					t.Fatalf("observer %d window %v: airtime[%v] = %v, per-channel %v", observer, win, u, at[u], wantAt)
				}
				if aps[u] != wantAPs {
					t.Fatalf("observer %d window %v: aps[%v] = %d, per-channel %d", observer, win, u, aps[u], wantAPs)
				}
			}
		}
	}
}

// TestMaxRangeForIsUpperBound samples random links and verifies the
// MaxRangeFor contract directly: any pair farther apart than the
// returned range is received below the floor.
func TestMaxRangeForIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	models := []Propagation{
		LogDistance{},
		LogDistance{ShadowSigmaDB: 12, Seed: 3},
		LogDistance{RefLossDB: 40, Exponent: 2.2, ShadowSigmaDB: 6, Seed: 8},
	}
	const tx, floor = DefaultTxPowerDBm, DefaultCSThresholdDBm
	for mi, m := range models {
		r := m.MaxRangeFor(tx, floor)
		if math.IsInf(r, 1) || r <= 0 {
			t.Fatalf("model %d: range %v not finite positive", mi, r)
		}
		for i := 0; i < 2000; i++ {
			a := Position{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
			ang := rng.Float64() * 2 * math.Pi
			d := r * (1 + rng.Float64()*3)
			b := Position{X: a.X + d*math.Cos(ang), Y: a.Y + d*math.Sin(ang)}
			if got := tx - m.LossDB(a, b); got >= floor {
				t.Fatalf("model %d: link at %.0f m (range %.0f m) received at %.1f dBm, above floor %v", mi, d, r, got, floor)
			}
		}
	}
	if r := (FlatPropagation{}).MaxRangeFor(tx, floor); !math.IsInf(r, 1) {
		t.Fatalf("flat range = %v, want +Inf", r)
	}
}
