package exp

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"whitefi/internal/dynamics"
	"whitefi/internal/mac"
	"whitefi/internal/sim"
	"whitefi/internal/trace"
)

// Tiled metro: the dense city restated as Tiles guard-spaced city
// tiles in a row, so the world has a provably safe spatial partition
// and can run on the sharded parallel engine (sim.ShardedEngine).
// Each tile is a self-contained dense deployment — its own square of
// APs, clients, flows and assignment rounds — and consecutive tiles
// are separated by a guard strip wider than twice
// mac.InteractionRange, so no transmission in one tile can decode,
// busy, or interfere in another. mac.VerifyPartition re-checks that
// claim at build time. The tiled layout is built here; everything
// after it is the continuous city's code (cityRun in densecity.go).
//
// The determinism story, mechanism by mechanism:
//
//   - Geometry, channels, flow specs: drawn host-side at build from
//     one seeded stream in fixed tile order — no engine involved.
//   - DCF backoff: every node gets a per-entity stream
//     (sim.Engine.RandFor keyed by node id), identical on any engine
//     built from the same seed, so backoff draws do not depend on
//     which shard the node landed on or who else shares its engine.
//   - Markov mics: incumbent.Mic is pure state, so every shard hosts
//     an identically-seeded replica set (plus one on the coordinator
//     for barrier-time sampling); each dynamics.Activity owns its RNG,
//     so every replica realises the same schedule independently.
//   - Assignment: APs re-evaluate on their own shard engine against
//     their own tile's medium (radio.TrueAirtime is observer-relative
//     and spatially culled — remote tiles contribute exactly zero) and
//     their shard's mic replicas.
//   - Mobility: dynamics.RandomWaypoint generates its path from its
//     own seed; walkers stay inside their tile (waypoint boxes are
//     inset from tile edges), so motion never threatens the partition.
//
// Everything cross-shard — snapshot emission, mic-occupancy sampling,
// final summarization — happens on the coordinator engine at
// barriers, with every shard paused on the same instant. The result:
// one (config, seed) pair produces byte-identical results, metric
// snapshots and digests at ANY shard count and ANY worker count,
// which is exactly what TestShardEquivalence pins.

const (
	// tileGuardMargin widens the inter-tile guard strip beyond the
	// 2×InteractionRange minimum, so float rounding in range math can
	// never put the partition in question.
	tileGuardMargin = 200.0
	// tileInset keeps APs this far inside their tile's square, leaving
	// room for client scatter (≤40 m) and mobility boxes (±40 m)
	// without ever leaving the tile.
	tileInset = 50.0
)

// tileGuard is the guard strip between consecutive tiles, m.
func tileGuard() float64 {
	return 2*mac.InteractionRange(mac.LogDistance{}, mac.DefaultTxPowerDBm) + tileGuardMargin
}

// shardedWorlds builds the sharded engine a row of tiles runs on:
// shards contiguous runs of tiles (0, or more than tiles, selects one
// shard per tile), workers threads (0 selects GOMAXPROCS), and one
// log-distance medium per shard whose prune horizon follows the
// barrier floor.
func shardedWorlds(seed int64, tiles, shards, workers int) (*sim.ShardedEngine, []*world) {
	if shards < 1 || shards > tiles {
		shards = tiles
	}
	se := sim.NewSharded(seed, shards)
	se.Workers = workers
	worlds := make([]*world, shards)
	for s := range worlds {
		eng := se.Shard(s)
		air := mac.NewAir(eng)
		air.Retention = historyRetention
		air.Prop = mac.LogDistance{}
		air.PruneClock = se.Floor
		worlds[s] = &world{eng: eng, air: air}
	}
	return se, worlds
}

// verifyPartition is the partition tripwire: a geometry bug would not
// crash — it would silently make results depend on the shard count,
// which is exactly the failure mode the equivalence harness exists to
// catch. It panics instead when two nodes of different groups (shards)
// are within interaction range.
func verifyPartition(what string, positions []mac.Position, groups []int) {
	if i, j, ok := mac.VerifyPartition(positions, mac.DefaultTxPowerDBm, mac.LogDistance{}, groups); !ok {
		panic(fmt.Sprintf("exp: tiled %s partition unsound: nodes %d and %d are cross-shard yet within interaction range", what, i, j))
	}
}

// layOutTiles is the tiled layout: cfg.Tiles squares, each sized for
// the mean per-tile AP count at the configured density, in a row with
// a guard strip between consecutive ones; tile t runs on shard
// t*S/Tiles; every node draws backoff from its own RandFor stream; and
// with Mobility each tile walks its clients.
func (r *cityRun) layOutTiles() {
	cfg := r.cfg
	se, worlds := shardedWorlds(cfg.Seed, cfg.Tiles, cfg.Shards, cfg.Workers)
	r.se, r.coord, r.shards = se, se.Global(), len(worlds)
	for _, w := range worlds {
		r.airs = append(r.airs, w.air)
	}
	r.rand = (*sim.Engine).RandFor
	side := citySide(cfg, cfg.Tiles)
	inset := tileInset
	if side <= 4*inset {
		inset = side / 4
	}
	pitch := side + tileGuard()
	for t := 0; t < cfg.Tiles; t++ {
		s := t * len(worlds) / cfg.Tiles
		tl := &cityTile{w: worlds[s], shard: s, origin: float64(t) * pitch, side: side, inset: inset,
			prefix: fmt.Sprintf("tile%02d.", t)}
		if cfg.Mobility {
			tl.upd = dynamics.NewUpdater(tl.w.eng, tl.w.air, 0)
		}
		r.tiles = append(r.tiles, tl)
	}
}

// verifyPartition checks the placed city's tiles against the shard
// partition.
func (r *cityRun) verifyPartition() {
	var positions []mac.Position
	var groups []int
	for _, b := range r.bss {
		s := r.tiles[b.tile].shard
		positions = append(positions, b.ap.Position())
		groups = append(groups, s)
		for _, cl := range b.clients {
			positions = append(positions, cl.Position())
			groups = append(groups, s)
		}
	}
	verifyPartition("city", positions, groups)
}

// tiledDigest renders the tiled run's canonical digest: every BSS's
// tile, channel, switches, delivered payload and per-flow telemetry,
// the medium counters summed across shards, and the summary sums.
func (r *cityRun) tiledDigest(bits, quality float64, switches int, dropRate float64) string {
	cfg := r.cfg
	var dg strings.Builder
	fmt.Fprintf(&dg, "tiledcity seed=%d aps=%d tiles=%d clients=%d mobility=%t settle=%s measure=%s\n",
		cfg.Seed, cfg.APs, cfg.Tiles, cfg.ClientsPerAP, cfg.Mobility, cfg.Settle, cfg.Measure)
	for i, b := range r.bss {
		fmt.Fprintf(&dg, "bss %d tile=%d ch=%s sw=%d rx=%d", i, b.tile, b.ap.Channel(), b.switches, b.ap.Stats.PayloadRxOK)
		for _, cl := range b.clients {
			fmt.Fprintf(&dg, ",%d", cl.Stats.PayloadRxOK)
		}
		for _, f := range b.flows {
			fmt.Fprintf(&dg, " f%d=%d/%d/%d/%s/%s", f.ID, f.Tel.Generated, f.Tel.Delivered,
				f.Tel.QueueDropped+f.Tel.RequestDropped, f.Tel.DelayP50(), f.Tel.DelayP95())
		}
		dg.WriteByte('\n')
	}
	// Medium counters summed across shards: per-tile physical outcomes
	// are disjoint, so the totals are shard-invariant even though the
	// per-medium split is not.
	var ac mac.AirCounters
	for _, a := range r.airs {
		c := &a.Counters
		ac.Launches += c.Launches
		ac.Delivered += c.Delivered
		ac.Collisions += c.Collisions
		ac.BelowFloor += c.BelowFloor
		ac.HalfDuplex += c.HalfDuplex
	}
	fmt.Fprintf(&dg, "air launches=%d delivered=%d collisions=%d below=%d half=%d\n",
		ac.Launches, ac.Delivered, ac.Collisions, ac.BelowFloor, ac.HalfDuplex)
	fmt.Fprintf(&dg, "sum bits=%.0f quality=%.9f ifree=%d/%d switches=%d drop=%.9f\n",
		bits, quality, r.freeSamples, r.totalSamples, switches, dropRate)
	return dg.String()
}

// DenseCityTiled executes the tiled-metro dense city on the sharded
// parallel engine and returns both the metrics and a canonical digest
// of the run — a byte-stable rendition of every BSS's channel,
// switches, delivered payload and per-flow telemetry plus the
// aggregate metrics, which the equivalence tests compare verbatim
// across shard and worker counts.
//
// cfg.Tiles fixes the geometry (below 1 selects one tile); cfg.Shards
// and cfg.Workers only choose the execution schedule.
func DenseCityTiled(cfg DenseCityConfig) (DenseCityResult, string) {
	if cfg.Tiles < 1 {
		cfg.Tiles = 1
	}
	r := buildCity(cfg)
	r.advanceTo(r.end)
	return r.finish(), r.digest
}

// ShardedCityTable sweeps the tiled city across shard counts at a
// fixed seed and scale: one row per shard count, with the wall-clock
// speedup over the 1-shard serial schedule and whether the digest
// matched the serial reference byte-for-byte (it must — the
// equivalence harness pins the same invariant; the column makes a
// violation visible in the rendered table too). reps repeats each cell
// and keeps the best wall clock. Domain metrics are omitted: every row
// reproduces the 1-shard row's digest, so they carry no information.
func ShardedCityTable(reps int) *trace.Table {
	if reps < 1 {
		reps = 1
	}
	t := &trace.Table{
		Title:   "ShardedCity: 16-BSS tiled city, identical results at every shard count (speedup needs cores)",
		Headers: []string{"shards", "workers", "wall(s)", "speedup", "digest"},
	}
	cfg := DenseCityConfig{
		APs: 16, Tiles: 8, Seed: 4242,
		Settle: 2 * time.Second, Measure: 8 * time.Second,
	}
	var refWall time.Duration
	var refDigest string
	for _, shards := range []int{1, 2, 4, 8} {
		cfg.Shards = shards
		wall := time.Duration(0)
		var digest string
		for rep := 0; rep < reps; rep++ {
			r, dg := DenseCityTiled(cfg)
			digest = dg
			if rep == 0 || r.WallClock < wall {
				wall = r.WallClock
			}
		}
		match := "ref"
		if shards == 1 {
			refWall, refDigest = wall, digest
		} else if digest == refDigest {
			match = "equal"
		} else {
			match = "DIVERGED"
		}
		t.AddRow(fmt.Sprintf("%d", shards),
			fmt.Sprintf("%d", runtime.GOMAXPROCS(0)),
			fmt.Sprintf("%.2f", wall.Seconds()),
			fmt.Sprintf("%.2fx", refWall.Seconds()/wall.Seconds()),
			match)
	}
	return t
}
