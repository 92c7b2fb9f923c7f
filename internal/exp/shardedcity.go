package exp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"whitefi/internal/assign"
	"whitefi/internal/dynamics"
	"whitefi/internal/incumbent"
	"whitefi/internal/mac"
	"whitefi/internal/obs"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
	"whitefi/internal/trace"
	"whitefi/internal/traffic"
)

// Tiled metro: the dense city restated as Tiles guard-spaced city
// tiles in a row, so the world has a provably safe spatial partition
// and can run on the sharded parallel engine (sim.ShardedEngine).
// Each tile is a self-contained dense deployment — its own square of
// APs, clients, flows and assignment rounds — and consecutive tiles
// are separated by a guard strip wider than twice
// mac.InteractionRange, so no transmission in one tile can decode,
// busy, or interfere in another. mac.VerifyPartition re-checks that
// claim at build time.
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

// denseTile is one tile's execution context: the world (engine +
// medium) of the shard that owns it, and the tile-local observability
// handles.
type denseTile struct {
	world  *world
	micMap func() spectrum.Map
	hist   *obs.Hist // per-tile MCham histogram; nil without an observer
}

// DenseCityTiled executes the tiled-metro dense city on the sharded
// parallel engine and returns both the metrics and a canonical digest
// of the run — a byte-stable rendition of every BSS's channel,
// switches, delivered payload and per-flow telemetry plus the
// aggregate metrics, which the equivalence tests compare verbatim
// across shard and worker counts.
//
// cfg.Tiles fixes the geometry (and must be positive); cfg.Shards and
// cfg.Workers only choose the execution schedule.
func DenseCityTiled(cfg DenseCityConfig) (DenseCityResult, string) {
	r := buildTiledCity(cfg)
	r.advanceTo(r.end)
	return r.finish()
}

// tiledRun is one tiled-metro city mid-flight on the sharded engine.
// Every stage the old host loop drove at barriers — the settle
// assignment round, mic-occupancy sampling — is pre-scheduled on the
// coordinator engine at build, so the run advances in arbitrary steps
// with the identical barrier schedule: a coordinator event at T bounds
// the conservative window at T exactly like a host RunUntil(T) call
// did, and shard events at T fire during the shard advance, before any
// coordinator callback at T.
type tiledRun struct {
	cfg     DenseCityConfig
	shards  int
	start   time.Time
	se      *sim.ShardedEngine
	airs    []*mac.Air
	bss     []*denseBSS
	bssTile []int
	tiles   []*denseTile

	globalMics   []*incumbent.Mic
	globalMicMap func() spectrum.Map
	allActs      []*dynamics.Activity
	updaters     []*dynamics.Updater
	end          time.Duration

	freeSamples, totalSamples int64

	localObs func(b *denseBSS, tl *denseTile, now time.Duration, m spectrum.Map) assign.Observation

	wallRun, wallSummarize *obs.Phase

	finished bool
	result   DenseCityResult
	digest   string
}

// buildTiledCity constructs the tiled world at virtual time zero with
// every barrier stage pre-scheduled on the coordinator engine.
func buildTiledCity(cfg DenseCityConfig) *tiledRun {
	cfg = cfg.withDefaults()
	if cfg.Tiles < 1 {
		cfg.Tiles = 1
	}
	shards := cfg.Shards
	if shards < 1 || shards > cfg.Tiles {
		shards = cfg.Tiles
	}
	start := time.Now()

	var wallBuild, wallRun, wallSummarize *obs.Phase
	if cfg.Obs != nil && cfg.Obs.Wall != nil {
		wallBuild = cfg.Obs.Wall.Phase("build")
		wallRun = cfg.Obs.Wall.Phase("run")
		wallSummarize = cfg.Obs.Wall.Phase("summarize")
		wallBuild.Start()
	}

	prop := mac.LogDistance{}
	se := sim.NewSharded(cfg.Seed, shards)
	se.Workers = cfg.Workers
	worlds := make([]*world, shards)
	for s := range worlds {
		eng := se.Shard(s)
		air := mac.NewAir(eng)
		air.Retention = historyRetention
		air.Prop = prop
		air.PruneClock = se.Floor
		worlds[s] = &world{eng: eng, air: air}
	}
	// Contiguous tile→shard map: tile t runs on shard t*S/T.
	shardOf := func(t int) int { return t * shards / cfg.Tiles }

	// Tile geometry: every tile is a square sized for the mean per-tile
	// AP count at the configured density, laid out in a row with a
	// guard strip between consecutive tiles.
	tileAPs := make([]int, cfg.Tiles)
	for t := range tileAPs {
		tileAPs[t] = cfg.APs / cfg.Tiles
		if t < cfg.APs%cfg.Tiles {
			tileAPs[t]++
		}
	}
	sideM := math.Sqrt(float64(cfg.APs)/float64(cfg.Tiles)/cfg.DensityPerKm2) * 1000
	inset := tileInset
	if sideM <= 4*inset {
		inset = sideM / 4
	}
	guardM := 2*mac.InteractionRange(prop, mac.DefaultTxPowerDBm) + tileGuardMargin
	pitch := sideM + guardM

	base := incumbent.SimulationBaseMap()
	free := base.FreeChannels()

	// Mic replicas: one identically-seeded set per shard (what the APs'
	// selectors consult, each on its own engine) plus one on the
	// coordinator (what barrier-time sampling and the observer read).
	// incumbent.Mic never touches a medium, so replication is free and
	// every set realises the same schedule.
	newMics := func(eng *sim.Engine) ([]*incumbent.Mic, []*dynamics.Activity) {
		var mics []*incumbent.Mic
		var acts []*dynamics.Activity
		if cfg.MicDuty > 0 {
			for i, u := range free {
				m := incumbent.NewMic(eng, u)
				mics = append(mics, m)
				acts = append(acts, dynamics.NewDutyActivity(eng, m, cfg.MicDuty, micChurnCycle, cfg.Seed*1009+int64(i)*613))
			}
		}
		return mics, acts
	}
	micMapOf := func(mics []*incumbent.Mic) func() spectrum.Map {
		return func() spectrum.Map {
			m := base
			for _, mic := range mics {
				if mic.Active() {
					m = m.SetOccupied(mic.Channel)
				}
			}
			return m
		}
	}
	globalMics, globalActs := newMics(se.Global())
	globalMicMap := micMapOf(globalMics)
	var allActs []*dynamics.Activity
	allActs = append(allActs, globalActs...)
	shardMicMap := make([]func() spectrum.Map, shards)
	for s := range worlds {
		mics, acts := newMics(worlds[s].eng)
		allActs = append(allActs, acts...)
		shardMicMap[s] = micMapOf(mics)
	}

	// Placement, channels and traffic: one host-side seeded stream in
	// fixed tile order (shard-count independent by construction), specs
	// from traffic.Mix exactly as the continuous city draws them.
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := traffic.Mix{
		Models:     cfg.Traffic,
		UplinkFrac: cfg.UplinkFrac,
		Seed:       cfg.Seed,
		Base:       traffic.Spec{Bytes: 1000, Interval: cfg.TrafficInterval},
	}.Specs(cfg.APs * cfg.ClientsPerAP)

	flowID := 0
	bssIdx := 0
	bss := make([]*denseBSS, cfg.APs)
	tiles := make([]*denseTile, cfg.Tiles)
	bssTile := make([]int, cfg.APs)
	updaters := make([]*dynamics.Updater, 0, cfg.Tiles)
	var positions []mac.Position
	var groups []int
	for t := 0; t < cfg.Tiles; t++ {
		s := shardOf(t)
		w := worlds[s]
		tiles[t] = &denseTile{world: w, micMap: shardMicMap[s]}
		origin := float64(t) * pitch
		var upd *dynamics.Updater
		if cfg.Mobility {
			upd = dynamics.NewUpdater(w.eng, w.air, 0)
		}
		for i := 0; i < tileAPs[t]; i++ {
			apID := denseCityIDBase + bssIdx*(cfg.ClientsPerAP+1)
			apPos := mac.Position{
				X: origin + inset + rng.Float64()*(sideM-2*inset),
				Y: inset + rng.Float64()*(sideM-2*inset),
			}
			ch := spectrum.Chan(free[rng.Intn(len(free))], spectrum.W5)
			b := &denseBSS{ids: map[int]bool{apID: true}}
			b.ap = mac.NewNode(w.eng, w.air, apID, ch, true)
			b.ap.SetPosition(apPos)
			b.ap.SetRand(w.eng.RandFor(apID))
			if cfg.QueueLimit > 0 {
				b.ap.SetQueueLimit(cfg.QueueLimit)
			}
			positions = append(positions, apPos)
			groups = append(groups, s)
			for c := 0; c < cfg.ClientsPerAP; c++ {
				id := apID + 1 + c
				cl := mac.NewNode(w.eng, w.air, id, ch, false)
				ang := rng.Float64() * 2 * math.Pi
				d := 10 + rng.Float64()*30
				clPos := mac.Position{X: apPos.X + d*math.Cos(ang), Y: apPos.Y + d*math.Sin(ang)}
				cl.SetPosition(clPos)
				cl.SetRand(w.eng.RandFor(id))
				b.clients = append(b.clients, cl)
				b.ids[id] = true
				positions = append(positions, clPos)
				groups = append(groups, s)
				sender, receiver := traffic.Orient(specs[flowID], b.ap, cl)
				f := traffic.NewFlow(w.eng, flowID, specs[flowID], sender, receiver)
				f.Start()
				b.flows = append(b.flows, f)
				flowID++
				if upd != nil {
					upd.Track(id, &dynamics.RandomWaypoint{
						Seed:     cfg.Seed*7919 + int64(id)*104729,
						Min:      mac.Position{X: apPos.X - 40, Y: apPos.Y - 40},
						Max:      mac.Position{X: apPos.X + 40, Y: apPos.Y + 40},
						SpeedMin: 0.5,
						SpeedMax: 1.5,
						Pause:    2 * time.Second,
						Start:    clPos,
					}, nil)
				}
			}
			bss[bssIdx] = b
			bssTile[bssIdx] = t
			bssIdx++
		}
		if upd != nil {
			upd.Start()
			updaters = append(updaters, upd)
		}
	}
	for _, a := range allActs {
		a.Start()
	}

	// The partition tripwire: a geometry bug here would not crash — it
	// would silently make results depend on the shard count, which is
	// exactly the failure mode the equivalence harness exists to catch.
	// Fail fast instead.
	if shards > 1 {
		if i, j, ok := mac.VerifyPartition(positions, mac.DefaultTxPowerDBm, prop, groups); !ok {
			panic(fmt.Sprintf("exp: tiled city partition unsound: nodes %d and %d are cross-shard yet within interaction range", i, j))
		}
	}

	const obsWindow = 1 * time.Second

	// Observer wiring — the coordinator engine drives snapshots, so
	// every read lands at a barrier. Registration deliberately differs
	// from the continuous city where a metric could not be
	// shard-invariant: medium counters are summed over the per-shard
	// airs (physical outcomes only — RegisterAirs drops the layout
	// gauges), engine metrics stay out (the coordinator dispatches
	// barrier bookkeeping and each shard re-runs the mic replicas, so
	// event counts legitimately vary with the shard count), and MAC
	// aggregates plus the MCham histogram are registered per tile —
	// "tileNN.*" names exist regardless of which engine hosts the tile.
	var airs []*mac.Air
	for _, w := range worlds {
		airs = append(airs, w.air)
	}
	if o := cfg.Obs; o != nil {
		o.Attach(se.Global())
		obs.RegisterAirs(o.Reg, airs)
		var flows []*traffic.Flow
		for _, b := range bss {
			flows = append(flows, b.flows...)
		}
		tileNodes := make([][]*mac.Node, cfg.Tiles)
		for i, b := range bss {
			t := bssTile[i]
			tileNodes[t] = append(tileNodes[t], b.ap)
			tileNodes[t] = append(tileNodes[t], b.clients...)
		}
		for t := range tiles {
			obs.RegisterNodes(o.Reg, fmt.Sprintf("tile%02d.mac", t), tileNodes[t])
			tiles[t].hist = o.Reg.Hist(fmt.Sprintf("tile%02d.assign.mcham", t))
		}
		obs.RegisterFlowTotals(o.Reg, flows)
		o.Reg.GaugeFunc("incumbent.active_mics", func() float64 {
			n := 0
			for _, m := range globalMics {
				if m.Active() {
					n++
				}
			}
			return float64(n)
		})
		o.Start()
	}

	// localObservation and evaluate mirror the continuous city, except
	// each runs against the BSS's own tile context: its shard's medium
	// (spatial culling makes remote tiles invisible to the observer-
	// relative airtime source anyway) and its shard's mic replicas.
	localObservation := func(b *denseBSS, tl *denseTile, now time.Duration, m spectrum.Map) assign.Observation {
		from := now - obsWindow
		if from < 0 {
			from = 0
		}
		src := &radio.TrueAirtime{Air: tl.world.air, Exclude: b.ids, Observer: b.ap.ID}
		return radio.Observe(src, m, from, now, -1)
	}
	evaluate := func(b *denseBSS, tl *denseTile, countSwitches bool) {
		now := tl.world.eng.Now()
		sel, switched := b.sel.Evaluate(localObservation(b, tl, now, tl.micMap()), nil)
		if tl.hist != nil && sel.OK {
			tl.hist.Observe(sel.Metric)
		}
		if !switched || !sel.OK || sel.Channel == b.ap.Channel() {
			return
		}
		b.retune(sel.Channel)
		if countSwitches {
			b.switches++
		}
	}

	r := &tiledRun{
		cfg:           cfg,
		shards:        shards,
		start:         start,
		se:            se,
		airs:          airs,
		bss:           bss,
		bssTile:       bssTile,
		tiles:         tiles,
		globalMics:    globalMics,
		globalMicMap:  globalMicMap,
		allActs:       allActs,
		updaters:      updaters,
		end:           cfg.Settle + cfg.Measure,
		localObs:      localObservation,
		wallRun:       wallRun,
		wallSummarize: wallSummarize,
	}

	// Settle, one unconditional assignment for everyone (as a
	// coordinator event at the settle barrier — every shard is paused
	// on the same instant), then staggered periodic re-evaluation
	// pre-scheduled on each BSS's own shard engine.
	runAfterTies(se.Global(), cfg.Settle, func() {
		for i, b := range bss {
			evaluate(b, tiles[bssTile[i]], false)
		}
		for _, b := range bss {
			b.snapshotRx()
		}
	})
	end := r.end
	for i, b := range bss {
		b, tl := b, tiles[bssTile[i]]
		phase := cfg.AssignPeriod * time.Duration(i) / time.Duration(len(bss))
		for t := cfg.Settle + cfg.AssignPeriod + phase; t < end; t += cfg.AssignPeriod {
			tl.world.eng.Schedule(t, func() { evaluate(b, tl, true) })
		}
	}

	// Measurement window: mic-occupancy sampling against the
	// coordinator's replica set, at barriers (each sample event bounds
	// a conservative window at its instant, exactly as the old
	// per-step RunUntil deadlines did, so the floor/prune schedule is
	// byte-identical too).
	for t := cfg.Settle + denseCitySampleStep; t <= end; t += denseCitySampleStep {
		runAfterTies(se.Global(), t, r.sampleMics)
	}
	if wallBuild != nil {
		wallBuild.Stop()
		wallRun.Start()
	}
	return r
}

// sampleMics takes one mic-occupancy sample across every BSS against
// the coordinator's replica set.
func (r *tiledRun) sampleMics() {
	for _, b := range r.bss {
		r.totalSamples++
		hit := false
		for _, mic := range r.globalMics {
			if mic.Active() && b.ap.Channel().Contains(mic.Channel) {
				hit = true
				break
			}
		}
		if !hit {
			r.freeSamples++
		}
	}
}

// advanceTo runs the tiled world to virtual time t, clamped to the run
// end.
func (r *tiledRun) advanceTo(t time.Duration) {
	if t > r.end {
		t = r.end
	}
	r.se.RunUntil(t)
}

// now returns the run's current virtual time (the coordinator clock).
func (r *tiledRun) now() time.Duration { return r.se.Now() }

// finish summarizes the completed run: the continuous city's metrics,
// computed in the same fixed BSS order, plus the canonical digest.
// Memoized: only the first call stops the walkers, activities, flows
// and observer.
func (r *tiledRun) finish() (DenseCityResult, string) {
	if r.finished {
		return r.result, r.digest
	}
	r.finished = true
	cfg, bss, end := r.cfg, r.bss, r.end
	if r.wallRun != nil {
		r.wallRun.Stop()
		r.wallSummarize.Start()
	}

	var bits float64
	for _, b := range bss {
		bits += float64(b.deliveredSince()) * 8
	}
	m := r.globalMicMap()
	var quality float64
	var switches int
	for i, b := range bss {
		switches += b.switches
		o := r.localObs(b, r.tiles[r.bssTile[i]], end, m)
		cur := assign.MCham(o, b.ap.Channel())
		best := cur
		for _, c := range spectrum.AllChannels() {
			if o.Map.ChannelFree(c) {
				if v := assign.MCham(o, c); v > best {
					best = v
				}
			}
		}
		if best > 0 {
			quality += cur / best
		} else {
			quality++
		}
	}
	for _, u := range r.updaters {
		u.Stop()
	}
	for _, a := range r.allActs {
		a.Stop()
	}
	ifree := 1.0
	if r.totalSamples > 0 {
		ifree = float64(r.freeSamples) / float64(r.totalSamples)
	}
	var p50s, p95s []float64
	var generated, dropped int
	for _, b := range bss {
		for _, f := range b.flows {
			f.Stop()
			p50s = append(p50s, f.Tel.DelayP50().Seconds()*1e3)
			p95s = append(p95s, f.Tel.DelayP95().Seconds()*1e3)
			generated += f.Tel.Generated
			dropped += f.Tel.QueueDropped
		}
	}
	dropRate := 0.0
	if generated > 0 {
		dropRate = float64(dropped) / float64(generated)
	}

	var dg strings.Builder
	fmt.Fprintf(&dg, "tiledcity seed=%d aps=%d tiles=%d clients=%d mobility=%t settle=%s measure=%s\n",
		cfg.Seed, cfg.APs, cfg.Tiles, cfg.ClientsPerAP, cfg.Mobility, cfg.Settle, cfg.Measure)
	for i, b := range bss {
		fmt.Fprintf(&dg, "bss %d tile=%d ch=%s sw=%d rx=%d", i, r.bssTile[i], b.ap.Channel(), b.switches, b.ap.Stats.PayloadRxOK)
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

	if r.wallRun != nil {
		r.wallSummarize.Stop()
	}
	if cfg.Obs != nil {
		cfg.Obs.Stop()
		cfg.Obs.Flush()
	}
	r.result = DenseCityResult{
		APs:                  cfg.APs,
		Nodes:                cfg.APs * (1 + cfg.ClientsPerAP),
		AreaKm2:              float64(cfg.APs) / cfg.DensityPerKm2,
		Tiles:                cfg.Tiles,
		Shards:               r.shards,
		GoodputMbps:          bits / cfg.Measure.Seconds() / 1e6,
		MChamQuality:         quality / float64(cfg.APs),
		InterferenceFreeFrac: ifree,
		SwitchesPerBSS:       float64(switches) / float64(cfg.APs),
		FlowDelayP50Ms:       trace.Median(p50s),
		FlowDelayP95Ms:       trace.Median(p95s),
		FlowDropRate:         dropRate,
		WallClock:            time.Since(r.start),
	}
	r.digest = dg.String()
	return r.result, r.digest
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
