package exp

import (
	"fmt"
	"strings"
	"time"

	"whitefi/internal/core"
	"whitefi/internal/fault"
	"whitefi/internal/mac"
	"whitefi/internal/phy"
)

// Sharded fault storm: Tiles independent stormed BSSs — each the full
// FaultStorm cell, with its own crash/restart injector and detached
// Gilbert–Elliott loss overlay — placed on guard-spaced positions and
// run on the sharded parallel engine. It is the adversarial half of
// the shard-equivalence artifact: where the tiled city exercises
// steady-state scale, the tiled storm exercises exactly the dynamics
// most likely to betray hidden cross-shard coupling (mid-run faults,
// recovery scans, rendezvous chirps, bursty loss), and its byte-stable
// fault + outage trace is what TestShardEquivalence pins identical
// across shard and worker counts.
//
// Two mechanisms carry the storm's shard invariance beyond what the
// city already establishes:
//
//   - Loss overlays run detached (fault.GilbertElliott.StartDetached)
//     behind a per-medium multiplexer that routes each candidate
//     delivery to the destination tile's overlay. Each overlay's RNG
//     is consumed only by its own tile's flips and deliveries — in
//     tile-local engine order, which is invariant — so the loss
//     realisation per tile does not depend on how many tiles share a
//     medium. (The medium consults DropFilter only after every
//     physical check passed, and cross-tile candidates never pass the
//     noise floor, so co-hosted tiles add zero filter calls.)
//   - Every tile's node ids live in their own core.Config.IDBase
//     block, so client and scanner RNGs (seeded by id), trace lines
//     and the overlay multiplexer stay tile-keyed no matter which
//     engine hosts the tile.
const (
	// shardedStormIDStride is the id block reserved per storm tile;
	// tile t's nodes live in [t*stride, (t+1)*stride).
	shardedStormIDStride = 1000
	// shardedStormSpacing is the in-tile client spacing in meters —
	// deep inside decode range, matching the spatial scenarios.
	shardedStormSpacing = 20.0
)

// ShardedStormConfig parameterizes one tiled storm.
type ShardedStormConfig struct {
	// Tiles is the number of independent stormed BSSs; 0 selects 2.
	Tiles int
	// Shards and Workers choose the execution schedule exactly as in
	// DenseCityConfig: contiguous tiles per shard, Shards 0 selecting
	// one shard per tile, Workers 0 selecting GOMAXPROCS. Results are
	// byte-identical at any combination.
	Shards  int
	Workers int
	// Seed derives every tile's injector and loss-overlay seeds.
	Seed int64
	// Rate is the fault-rate multiplier of every tile's injector
	// (FaultStorm's sweep variable).
	Rate float64
	// Run and Quiesce override the storm length and injection cutoff;
	// zero selects the FaultStorm defaults.
	Run     time.Duration
	Quiesce time.Duration
}

// ShardedStormResult aggregates the tiled storm's outcome.
type ShardedStormResult struct {
	Tiles, Shards int
	Crashes       int // total AP crashes across tiles
	Stalls        int // total scanner stalls across tiles
	GoodputMbps   float64
	Outages       int // completed client outage episodes
	Orphans       int // clients still disconnected at the end
	WallClock     time.Duration
}

// shardedStormTileSeed spaces per-tile seeds like the FaultStorm
// sweep spaces its rep seeds.
func shardedStormTileSeed(seed int64, t int) int64 { return seed + 53*int64(t) }

// ShardedStorm runs the tiled fault storm and returns the aggregate
// result plus the combined byte-stable trace: per tile in tile order, a
// "== tile t ==" header and the cell's fault + outage log
// (stormCell.writeTrace). Run and Quiesce default and clamp as in
// FaultStormCellConfig.
func ShardedStorm(cfg ShardedStormConfig) (ShardedStormResult, string) {
	if cfg.Tiles < 1 {
		cfg.Tiles = 2
	}
	cc := FaultStormCellConfig{Run: cfg.Run, Quiesce: cfg.Quiesce}.withDefaults()
	start := time.Now()

	se, worlds := shardedWorlds(cfg.Seed, cfg.Tiles, cfg.Shards, cfg.Workers)
	// geMux holds each shard medium's tile-indexed overlay table; the
	// DropFilter installed on the medium routes by destination id.
	geMux := make([][]*fault.GilbertElliott, len(worlds))
	if cfg.Rate > 0 {
		for s, w := range worlds {
			mux := make([]*fault.GilbertElliott, cfg.Tiles)
			geMux[s] = mux
			w.air.DropFilter = func(f phy.Frame, src, dst int) bool {
				t := dst / shardedStormIDStride
				if t < 0 || t >= len(mux) || mux[t] == nil {
					return false
				}
				return mux[t].FilterFrame(f, src, dst)
			}
		}
	}
	pitch := tileGuard()

	cells := make([]*stormCell, cfg.Tiles)
	var positions []mac.Position
	var groups []int
	for t := range cells {
		s := t * len(worlds) / cfg.Tiles
		w := worlds[s]
		// The Rand hook must ride in the Config: the AP's first backup
		// draw happens inside construction, before any SetRand call
		// could land, and it must come from the AP's own stream or the
		// choice depends on what else shares the engine.
		c := newStormCell(w, shardedStormTileSeed(cfg.Seed, t), cfg.Rate, core.Config{
			IDBase: t * shardedStormIDStride,
			Rand:   w.eng.RandFor,
		})
		// The AP at the tile origin, its clients in a row beside it.
		nodes := []*mac.Node{c.net.AP.Node}
		for _, cl := range c.net.Clients {
			nodes = append(nodes, cl.Node)
		}
		for i, n := range nodes {
			p := mac.Position{X: float64(t)*pitch + shardedStormSpacing*float64(i)}
			n.SetPosition(p)
			positions = append(positions, p)
			groups = append(groups, s)
		}
		c.start(true)
		if c.ge != nil {
			geMux[s][t] = c.ge
		}
		cells[t] = c
	}
	if len(worlds) > 1 {
		verifyPartition("storm", positions, groups)
	}

	runAfterTies(se.Global(), cc.Quiesce, func() {
		for _, c := range cells {
			c.quiesce()
		}
	})
	se.RunUntil(cc.Run)

	res := ShardedStormResult{Tiles: cfg.Tiles, Shards: len(worlds)}
	var sb strings.Builder
	var bytesDelivered int64
	for t, c := range cells {
		fmt.Fprintf(&sb, "== tile %d ==\n", t)
		res.Orphans += c.writeTrace(&sb)
		res.Crashes += c.net.AP.Crashes
		res.Stalls += c.net.AP.Stalls
		bytesDelivered += c.net.GoodputBytes()
		for _, cl := range c.net.Clients {
			res.Outages += len(cl.Outages)
		}
		c.net.Stop()
	}
	res.GoodputMbps = float64(bytesDelivered) * 8 / cc.Run.Seconds() / 1e6
	res.WallClock = time.Since(start)
	return res, sb.String()
}
