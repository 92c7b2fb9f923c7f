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
	air medium
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

// worldConfig selects the medium and the node pattern of one randomized
// world (see worldEvents).
type worldConfig struct {
	// reference runs the world on refAir instead of the production Air.
	reference bool
	// churn replaces the default 14 nodes, attached in ascending id
	// order before any traffic, with 150 nodes of scattered ids,
	// attached in shuffled order after the grid exists (half of them
	// mid-run), and detaches and re-attaches nodes throughout the run.
	churn bool
	cellM float64 // forced grid cell edge; 0 auto-sizes
	// dropFilter installs a DropFilter, drawing from its own seeded RNG,
	// that vetoes about a quarter of the deliveries that survive the
	// physical layer.
	dropFilter bool
	// attachSeed, when non-zero, builds the grid before anything
	// attaches and attaches the nodes present at the start in an order
	// shuffled by an RNG of this seed. Every node is drawn before the
	// first attach, so the shuffle leaves the world itself unchanged.
	attachSeed int64
	// probe, when non-nil, is handed the production medium before any
	// node attaches (tests schedule inspections on its engine).
	probe func(a *Air)
	// strangers reaches the ids the medium first sees outside the usual
	// place-then-attach order: half the nodes attach before their first
	// SetPosition, two ids that never attach or get placed broadcast, a
	// quarter of unicasts go to ids the medium has never seen, and three
	// fresh ids are placed at the origin, where they already stand, and
	// attach there. The grid exists before anything attaches.
	strangers bool
}

// worldModels are the propagation models the randomized worlds run
// under: no culling at all, a plain range bound, and a shadowed bound
// reaching kilometres.
var worldModels = []struct {
	name string
	prop Propagation
}{
	{"flat", FlatPropagation{}},
	{"logdistance", LogDistance{}},
	{"shadowed", LogDistance{ShadowSigmaDB: 8, Seed: 97}},
}

// worldEvents runs one randomized spatial world — random placements,
// channels, broadcast/unicast traffic, mid-run moves and retunes — and
// returns the full ordered event log and the medium's outcome counters.
// The world is a pure function of (prop, seed, cfg.churn,
// cfg.dropFilter); the medium and how it indexes its nodes must not
// appear in it.
func worldEvents(prop Propagation, seed int64, cfg worldConfig) ([]string, AirCounters) {
	const (
		nTx      = 300
		nMoves   = 120
		nRetunes = 40
		areaM    = 2500.0
		horizon  = 2 * time.Second
	)
	nNodes := 14
	if cfg.churn {
		nNodes = 150
	}
	rng := rand.New(rand.NewSource(seed))
	eng := sim.New(seed)
	var drop func(phy.Frame, int, int) bool
	if cfg.dropFilter {
		drng := rand.New(rand.NewSource(seed + 7919))
		drop = func(phy.Frame, int, int) bool { return drng.Intn(4) == 0 }
	}
	var m medium
	if cfg.reference {
		ref := newRefAir(eng, prop)
		ref.dropFilter = drop
		m = ref
	} else {
		air := NewAir(eng)
		air.Prop = prop
		air.GridCellM = cfg.cellM
		air.DropFilter = drop
		if cfg.churn || cfg.attachSeed != 0 || cfg.strangers {
			// Build the grid while the medium is empty, so every attach
			// below inserts into a live index and shifts node indices.
			air.NodesNear(Position{}, 1)
		}
		if cfg.probe != nil {
			cfg.probe(air)
		}
		m = airMedium{air}
	}

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
		for i, v := range rng.Perm(1000)[:nNodes] {
			ids[i] = 1 + v
		}
	}
	// Draw every node before attaching any, so the attach order cannot
	// shift the world's RNG stream.
	type worldNode struct {
		rec  *recorder
		ch   spectrum.Channel
		isAP bool
		// late nodes (churn) attach mid-run, at time at.
		late bool
		at   time.Duration
		// unplaced nodes (strangers) attach first and move to pos after.
		unplaced bool
		pos      Position
	}
	nodes := make([]worldNode, nNodes)
	for i, id := range ids {
		rec := &recorder{id: id, eng: eng, air: m, log: &log}
		p := Position{X: rng.Float64() * areaM, Y: rng.Float64() * areaM}
		if cfg.strangers && i%2 == 1 {
			nodes[i].unplaced, nodes[i].pos = true, p
		} else {
			m.SetPosition(id, p)
		}
		nodes[i].rec, nodes[i].ch, nodes[i].isAP = rec, channels[rng.Intn(len(channels))], i%3 == 0
		if cfg.churn && i >= nNodes/2 {
			nodes[i].late, nodes[i].at = true, time.Duration(rng.Int63n(int64(horizon)))
		}
	}
	order := make([]int, nNodes)
	for i := range order {
		order[i] = i
	}
	if cfg.attachSeed != 0 {
		rand.New(rand.NewSource(cfg.attachSeed)).Shuffle(nNodes, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, i := range order {
		if nd := nodes[i]; !nd.late {
			m.attachNode(nd.rec.id, nd.ch, nd.isAP, nd.rec, nd.rec.deliver)
		}
	}
	for _, nd := range nodes {
		if nd.late {
			eng.Schedule(nd.at, func() { m.attachNode(nd.rec.id, nd.ch, nd.isAP, nd.rec, nd.rec.deliver) })
		}
		if nd.unplaced {
			m.SetPosition(nd.rec.id, nd.pos)
		}
	}
	if cfg.strangers {
		for id := 2001; id <= 2003; id++ {
			rec := &recorder{id: id, eng: eng, air: m, log: &log}
			m.SetPosition(id, Position{})
			m.attachNode(id, channels[rng.Intn(len(channels))], id == 2001, rec, rec.deliver)
		}
		for i := 0; i < 40; i++ {
			src := 3001 + rng.Intn(2)
			ch := channels[rng.Intn(len(channels))]
			f := phy.DataFrame(src, phy.Broadcast, 100+rng.Intn(1200))
			at := time.Duration(rng.Int63n(int64(horizon)))
			eng.Schedule(at, func() { m.Transmit(src, ch, f, DefaultTxPowerDBm, false) })
		}
	}
	if cfg.churn {
		// Detach and re-attach nodes mid-run, on a fresh channel after
		// a gap. Overlapping pairs also detach absent nodes and attach
		// present ones (a same-id replace).
		for i := 0; i < 60; i++ {
			k := rng.Intn(nNodes)
			id, rec := ids[k], nodes[k].rec
			ch := channels[rng.Intn(len(channels))]
			at := time.Duration(rng.Int63n(int64(horizon)))
			back := at + time.Duration(rng.Int63n(int64(200*time.Millisecond)))
			eng.Schedule(at, func() { m.detach(id) })
			eng.Schedule(back, func() { m.attachNode(id, ch, k%3 == 0, rec, rec.deliver) })
		}
	}
	for i := 0; i < nTx; i++ {
		src := ids[rng.Intn(len(ids))]
		ch := channels[rng.Intn(len(channels))]
		dst := phy.Broadcast
		if rng.Intn(2) == 0 {
			dst = ids[rng.Intn(len(ids))]
			if cfg.strangers && rng.Intn(4) == 0 {
				dst = 4001 + rng.Intn(50) // an id nothing ever uses
			}
		}
		f := phy.DataFrame(src, dst, 100+rng.Intn(1200))
		at := time.Duration(rng.Int63n(int64(horizon)))
		noCS := rng.Intn(4) == 0
		eng.Schedule(at, func() { m.Transmit(src, ch, f, DefaultTxPowerDBm, noCS) })
	}
	for i := 0; i < nMoves; i++ {
		id := ids[rng.Intn(len(ids))]
		p := Position{X: rng.Float64() * areaM, Y: rng.Float64() * areaM}
		at := time.Duration(rng.Int63n(int64(horizon)))
		eng.Schedule(at, func() { m.SetPosition(id, p) })
	}
	for i := 0; i < nRetunes; i++ {
		id := ids[rng.Intn(len(ids))]
		ch := channels[rng.Intn(len(channels))]
		at := time.Duration(rng.Int63n(int64(horizon)))
		eng.Schedule(at, func() { m.retuneNode(id, ch) })
	}
	eng.RunUntil(horizon + 100*time.Millisecond)
	return log, m.counters()
}

// TestCulledMediumEventIdentical is the medium's safety property: on
// random spatial worlds — every propagation model, random channels,
// broadcasts and unicasts, re-entrant replies, nodes moving and
// retuning mid-flight, (churn) nodes attaching, detaching and
// re-attaching under a live grid, and (strangers) ids first seen by an
// attach, a launch or a placement at the origin — the production Air,
// culled and pooled, produces exactly the same ordered sequence of busy
// transitions and deliveries as refAir, which walks every node and
// scans the whole history. MaxRangeFor is an upper bound, so culling
// may only skip work, never change an outcome; the arena, the log index
// and the slot table are storage, never visible. Every outcome counter
// except BelowFloor must match too (see AirCounters).
func TestCulledMediumEventIdentical(t *testing.T) {
	var total AirCounters
	variants := []struct {
		name string
		cfg  worldConfig
	}{
		{"default", worldConfig{}},
		{"churn", worldConfig{churn: true}},
		{"strangers", worldConfig{strangers: true}},
	}
	for _, m := range worldModels {
		for seed := int64(1); seed <= 4; seed++ {
			for _, v := range variants {
				// Seed 4 runs with a drop filter, so the filter is
				// consulted in the same order by both media.
				cfg := v.cfg
				cfg.dropFilter = seed == 4
				name := fmt.Sprintf("%s/seed%d/%s", m.name, seed, v.name)
				ref := cfg
				ref.reference = true
				want, wantN := worldEvents(m.prop, seed, ref)
				if cfg.dropFilter && wantN.FilterDrops == 0 {
					t.Fatalf("%s: drop filter never vetoed a delivery", name)
				}
				// A small forced cell size stresses multi-cell queries; 0
				// exercises the auto-sized grid.
				for _, cell := range []float64{0, 150} {
					cfg.cellM = cell
					got, gotN := worldEvents(m.prop, seed, cfg)
					cellName := fmt.Sprintf("%s/cell%v", name, cell)
					sameWorldEvents(t, cellName, want, got)
					sameOutcomes(t, cellName, wantN, gotN)
				}
				total.Delivered += wantN.Delivered
				total.HalfDuplex += wantN.HalfDuplex
				total.Collisions += wantN.Collisions
			}
		}
	}
	if total.Delivered == 0 || total.HalfDuplex == 0 || total.Collisions == 0 {
		t.Fatalf("worlds leave an outcome unexercised: %+v", total)
	}
}

// TestAttachOrderIndependent: the order in which nodes attach is not
// part of the world. Building the grid first and attaching each world's
// initial nodes in a shuffled order must change no event.
func TestAttachOrderIndependent(t *testing.T) {
	for _, m := range worldModels {
		for seed := int64(1); seed <= 4; seed++ {
			for _, churn := range []bool{false, true} {
				cfg := worldConfig{churn: churn, cellM: 150}
				want, _ := worldEvents(m.prop, seed, cfg)
				cfg.attachSeed = 100 + seed
				got, _ := worldEvents(m.prop, seed, cfg)
				sameWorldEvents(t, fmt.Sprintf("%s/seed%d/churn%v", m.name, seed, churn), want, got)
			}
		}
	}
}

// sameWorldEvents fails the test unless the event log got equals want.
func sameWorldEvents(t *testing.T, name string, want, got []string) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: empty event log, world generates no traffic", name)
	}
	if len(want) != len(got) {
		t.Fatalf("%s: event count diverged: want %d, got %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: event %d diverged:\n  want: %s\n  got:  %s", name, i, want[i], got[i])
		}
	}
}

// sameOutcomes fails the test unless the counters agree on everything
// but BelowFloor, which depends on the grid's cell size.
func sameOutcomes(t *testing.T, name string, want, got AirCounters) {
	t.Helper()
	want.BelowFloor, got.BelowFloor = 0, 0
	if want != got {
		t.Fatalf("%s: outcome counters diverged:\n  want: %+v\n  got:  %+v", name, want, got)
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
