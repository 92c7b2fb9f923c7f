package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"whitefi/internal/assign"
	"whitefi/internal/dynamics"
	"whitefi/internal/incumbent"
	"whitefi/internal/mac"
	"whitefi/internal/obs"
	"whitefi/internal/phy"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
	"whitefi/internal/trace"
	"whitefi/internal/traffic"
)

// DenseCity is the city-scale dense-deployment scenario: hundreds of
// WhiteFi BSSs scattered over square kilometers of log-distance medium,
// each serving CBR downlink traffic, with Markov microphones keying up
// across the band. It is the regime WhiteFi's variable-width MCham
// assignment targets (many networks contending for fragmented white
// space) at the node counts the mmWave ad-hoc literature evaluates —
// and the workload the medium's spatial interference culling exists
// for: every launch fans out to the interference neighborhood instead
// of the whole city.

// DenseCityConfig parameterizes one dense-deployment world.
type DenseCityConfig struct {
	// APs is the number of access points (N). Each AP brings
	// ClientsPerAP clients, so the node count is APs*(1+ClientsPerAP).
	APs int
	// ClientsPerAP is M; 0 selects 2.
	ClientsPerAP int
	// DensityPerKm2 is the AP density; the world side length follows
	// from APs/DensityPerKm2. 0 selects 24 AP/km² (≈200 m spacing, a
	// dense urban deployment).
	DensityPerKm2 float64
	// Seed drives placement, initial channels and mic schedules.
	Seed int64
	// Settle is the warm-up before MCham assignment; 0 selects 2 s.
	Settle time.Duration
	// Measure is the measurement window after assignment; 0 selects 8 s.
	Measure time.Duration
	// MicDuty is the Markov mic duty cycle on every free channel; 0
	// selects 0.08. Negative disables mics.
	MicDuty float64
	// TrafficInterval is the (mean) inter-packet delay per client flow
	// (1000-byte packets); 0 selects 25 ms.
	TrafficInterval time.Duration
	// Traffic lists the flow models cycled over client flows; empty
	// selects pure CBR, which is schedule-identical to the
	// pre-traffic-engine scenario.
	Traffic []traffic.Model
	// UplinkFrac is the probability a flow is reversed client -> AP
	// (drawn from its own seeded RNG, so 0 leaves placement untouched).
	UplinkFrac float64
	// QueueLimit bounds each AP's egress queue; 0 keeps the MAC default.
	QueueLimit int
	// AssignPeriod is how often each AP re-evaluates its channel with
	// the hysteresis selector; 0 selects 4 s.
	AssignPeriod time.Duration
	// Tiles, when positive, selects the tiled-metro variant of the
	// scenario (see DenseCityTiled): the APs are spread over Tiles
	// guard-spaced city tiles instead of one continuous square, and the
	// run executes on the sharded parallel engine. The tile count fixes
	// the geometry; vary Shards and Workers freely — results are
	// byte-identical across both. Zero keeps the legacy continuous
	// city on the serial engine, byte-for-byte.
	Tiles int
	// Shards is the number of execution shards the tiled city runs on
	// (contiguous runs of tiles per shard). Zero selects one shard per
	// tile; values above Tiles are clamped. Only meaningful with
	// Tiles > 0.
	Shards int
	// Workers bounds the OS threads advancing shards in parallel; zero
	// selects GOMAXPROCS. Wall clock only — never results.
	Workers int
	// Mobility, in the tiled variant, walks every client on a seeded
	// random-waypoint trajectory around its AP (per-tile epoch
	// updaters), so the equivalence artifact covers moving worlds too.
	// The continuous city ignores it.
	Mobility bool
	// Obs, when non-nil, is attached to the run's coordinator engine:
	// the standard subsystem metrics are registered (cityRun.observe
	// lists what each layout registers), the MCham histogram
	// "assign.mcham" is kept, and snapshots emit per the observer's
	// Period to its Out. Snapshot bytes are a pure function of the
	// config, so they are byte-identical across harness worker counts.
	Obs *obs.Observer
}

// withDefaults fills the zero-valued fields.
func (c DenseCityConfig) withDefaults() DenseCityConfig {
	if c.ClientsPerAP == 0 {
		c.ClientsPerAP = 2
	}
	if c.DensityPerKm2 == 0 {
		c.DensityPerKm2 = 24
	}
	if c.Settle == 0 {
		c.Settle = 2 * time.Second
	}
	if c.Measure == 0 {
		c.Measure = 8 * time.Second
	}
	if c.MicDuty == 0 {
		c.MicDuty = 0.08
	}
	if c.MicDuty < 0 {
		c.MicDuty = 0
	}
	if c.TrafficInterval == 0 {
		c.TrafficInterval = 25 * time.Millisecond
	}
	if c.AssignPeriod == 0 {
		c.AssignPeriod = 4 * time.Second
	}
	return c
}

// DenseCityResult is the outcome of one dense-deployment run.
type DenseCityResult struct {
	APs     int
	Nodes   int     // APs + clients on the medium
	AreaKm2 float64 // world area
	// Tiles and Shards echo the tiled-variant execution shape (zero on
	// the continuous city): how many guard-spaced tiles the metro was
	// split into, and how many parallel shards actually ran it.
	Tiles  int
	Shards int
	// GoodputMbps is the aggregate delivered downlink payload rate
	// across every BSS over the measurement window.
	GoodputMbps float64
	// MChamQuality is the mean over APs of MCham(operating channel) /
	// MCham(best local channel), each evaluated against the AP's own
	// end-of-run observation: 1.0 means every AP sits on its locally
	// optimal channel, lower values measure assignment staleness.
	MChamQuality float64
	// InterferenceFreeFrac is the fraction of (BSS, sample) points
	// whose operating channel had no active microphone.
	InterferenceFreeFrac float64
	// SwitchesPerBSS is the mean number of channel switches per BSS
	// over the measurement window (initial assignment excluded).
	SwitchesPerBSS float64
	// FlowDelayP50Ms / FlowDelayP95Ms are medians across all client
	// flows of each flow's own p50 / p95 delivery delay (ms), over the
	// whole run (settle included — flows start at t=0).
	FlowDelayP50Ms float64
	FlowDelayP95Ms float64
	// FlowDropRate is total egress-queue drops over total generated
	// packets across all flows.
	FlowDropRate float64
	// WallClock is the host time the run took — the scaling headline.
	WallClock time.Duration
}

// denseCityIDBase spaces BSS ids well clear of the other scenarios'.
const denseCityIDBase = 10000

// denseBSS is one AP with its clients, flows, and assignment state.
type denseBSS struct {
	tile     int // index of the cityTile hosting the BSS
	ap       *mac.Node
	clients  []*mac.Node
	flows    []*traffic.Flow
	ids      map[int]bool // all member ids, for observation exclusion
	sel      assign.Selector
	switches int
	// lastRx snapshots acknowledged payload per member node (AP first,
	// then clients) so goodput covers uplink senders too; for the
	// default downlink-only traffic only the AP entry ever moves.
	lastRx []int64
}

// snapshotRx records every member's acknowledged-payload counter.
func (b *denseBSS) snapshotRx() {
	b.lastRx = b.lastRx[:0]
	b.lastRx = append(b.lastRx, b.ap.Stats.PayloadRxOK)
	for _, cl := range b.clients {
		b.lastRx = append(b.lastRx, cl.Stats.PayloadRxOK)
	}
}

// deliveredSince sums members' acknowledged payload since snapshotRx.
func (b *denseBSS) deliveredSince() int64 {
	var d int64
	d += b.ap.Stats.PayloadRxOK - b.lastRx[0]
	for i, cl := range b.clients {
		d += cl.Stats.PayloadRxOK - b.lastRx[1+i]
	}
	return d
}

// retune moves the whole BSS to ch.
func (b *denseBSS) retune(ch spectrum.Channel) {
	b.ap.Retune(ch)
	for _, cl := range b.clients {
		cl.Retune(ch)
	}
}

// runAfterTies schedules fn at virtual time t so it fires after every
// other event at exactly t: the wrapper yields (reschedules itself at
// the current instant, which places it behind everything queued there)
// until no earlier-scheduled event shares the instant. This reproduces
// byte-for-byte the ordering of the pre-session host loops, which ran
// their work after RunUntil(t) had drained every event at ≤ t — the
// property the absolute goodput pins (TestDenseCityTrafficDefault-
// Unchanged) hold the refactor to. At most one runAfterTies event may
// occupy a given instant on a given engine: two would yield to each
// other forever.
func runAfterTies(eng *sim.Engine, t time.Duration, fn func()) {
	var wrapped func()
	wrapped = func() {
		if next, ok := eng.NextAt(); ok && next == eng.Now() {
			eng.Schedule(eng.Now(), wrapped)
			return
		}
		fn()
	}
	eng.Schedule(t, wrapped)
}

// cityTile is one square region of the city: the world that hosts it,
// its geometry, the mic set its APs' selectors consult, and its client
// walker and observability handles. The continuous city is one tile.
type cityTile struct {
	w      *world
	shard  int     // index of w among the layout's worlds
	origin float64 // X offset of the square, m
	side   float64 // side length of the square, m
	inset  float64 // APs stay this far inside the square, m
	prefix string  // metric-name prefix of the tile's registrations
	micMap func() spectrum.Map
	upd    *dynamics.Updater // random-waypoint client walker; nil without mobility
	hist   *obs.Hist         // MCham histogram; nil without an observer
}

// cityRun is one dense city mid-flight, in either layout: the
// continuous city (Tiles == 0: one square on a sim.Engine) or the tiled
// metro (Tiles guard-spaced squares on a sim.ShardedEngine, see
// shardedcity.go). A layout step builds what differs — the worlds, the
// coordinator engine, the tiles and each node's random source — and
// everything after it is written once. Every stage of the run is
// pre-scheduled at build, so the run can be advanced to any virtual
// time, digested, checkpointed and resumed with no behavioral seam.
// Built by buildCity; advanced by advanceTo; summarized once by finish.
type cityRun struct {
	cfg   DenseCityConfig
	start time.Time
	end   time.Duration

	// se is the tiled layout's sharded engine (nil on the continuous
	// layout), which advances and digests every shard; coord runs the
	// barrier stages (settle round, mic sampling, snapshots) — the
	// continuous city's one engine, or se's global one. shards is 0 on
	// the continuous layout. rand is each node's backoff source.
	se     *sim.ShardedEngine
	coord  *sim.Engine
	shards int
	airs   []*mac.Air
	tiles  []*cityTile
	rand   func(eng *sim.Engine, id int) *rand.Rand

	bss  []*denseBSS
	base spectrum.Map
	free []spectrum.UHF
	// mics is the coordinator's mic set: what sampling, the observer,
	// the sections and the summary read.
	mics   []*incumbent.Mic
	micMap func() spectrum.Map
	acts   []*dynamics.Activity

	freeSamples, totalSamples int64

	// trc traces assignment rounds (continuous layout with an observer).
	trc              *obs.Tracer
	evalID, switchID obs.SpanID

	wallRun, wallSummarize *obs.Phase

	finished bool
	result   DenseCityResult
	digest   string // canonical digest of a tiled run; empty otherwise
}

// DenseCityRun executes one dense-deployment world and reports its
// metrics. The run is deterministic per config (placement, channels and
// mic schedules all derive from Seed); Tiles > 0 selects the tiled
// metro on the sharded engine (see DenseCityTiled).
//
// Shape: N APs are placed by a seeded binomial point process (a Poisson
// process conditioned on its count) over a square sized for
// DensityPerKm2; clients scatter within association range of their AP.
// Every BSS starts on a seeded random free channel and carries CBR
// downlink traffic. From the end of the settle window on, each AP
// re-runs a hysteresis-selector round (assign.Selector) every
// AssignPeriod on its own staggered phase, against its own
// position-dependent observation (radio.TrueAirtime with the AP as
// observer, own-BSS traffic excluded, fused with the live mic map),
// and retunes its BSS on a switch — distributed MCham assignment
// without the core AP state machine, so the run isolates medium scale
// and assignment quality rather than protocol dynamics (MicChurn
// covers those).
func DenseCityRun(cfg DenseCityConfig) DenseCityResult {
	r := buildCity(cfg)
	r.advanceTo(r.end)
	return r.finish()
}

// buildCity lays the city out, places it, and pre-schedules every stage
// of the run — the settle-time assignment round, the staggered periodic
// re-evaluations, and the mic-occupancy sampling — as engine events, so
// a run is build + advance + finish and a checkpoint can pause it at
// any instant in between.
func buildCity(cfg DenseCityConfig) *cityRun {
	cfg = cfg.withDefaults()
	r := &cityRun{cfg: cfg, start: time.Now(), end: cfg.Settle + cfg.Measure}

	// Optional observability: wall phases bracket the host-side stages
	// (strictly outside the deterministic snapshot stream).
	var wallBuild *obs.Phase
	if cfg.Obs != nil && cfg.Obs.Wall != nil {
		wallBuild = cfg.Obs.Wall.Phase("build")
		r.wallRun = cfg.Obs.Wall.Phase("run")
		r.wallSummarize = cfg.Obs.Wall.Phase("summarize")
		wallBuild.Start()
	}

	if cfg.Tiles > 0 {
		r.layOutTiles()
	} else {
		r.layOutContinuous()
	}
	r.base = incumbent.SimulationBaseMap()
	r.free = r.base.FreeChannels()

	// Markov mics: one per free channel on every engine that hosts a
	// tile, plus the coordinator's set. incumbent.Mic never touches a
	// medium and each dynamics.Activity owns its RNG, so every replica
	// realises the same schedule; each AP's selector consults its own
	// engine's set. The continuous city's engine is its coordinator, so
	// it has one set.
	r.mics, r.acts = r.newMics(r.coord)
	r.micMap = r.micMapOf(r.mics)
	maps := map[*sim.Engine]func() spectrum.Map{r.coord: r.micMap}
	for _, tl := range r.tiles {
		if maps[tl.w.eng] == nil {
			mics, acts := r.newMics(tl.w.eng)
			r.acts = append(r.acts, acts...)
			maps[tl.w.eng] = r.micMapOf(mics)
		}
		tl.micMap = maps[tl.w.eng]
	}

	// Placement, channels and flows: one host-side seeded stream in
	// fixed tile order, so how tiles map onto shards never moves a
	// draw. Flow specs come from traffic.Mix (its own RNG stream), so
	// the default (pure CBR downlink) leaves the placement stream — and
	// therefore the whole run — identical to the pre-traffic-engine
	// scenario.
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := traffic.Mix{
		Models:     cfg.Traffic,
		UplinkFrac: cfg.UplinkFrac,
		Seed:       cfg.Seed,
		Base:       traffic.Spec{Bytes: 1000, Interval: cfg.TrafficInterval},
	}.Specs(cfg.APs * cfg.ClientsPerAP)
	flowID := 0
	r.bss = make([]*denseBSS, 0, cfg.APs)
	for t, tl := range r.tiles {
		aps := cfg.APs / len(r.tiles)
		if t < cfg.APs%len(r.tiles) {
			aps++
		}
		for i := 0; i < aps; i++ {
			r.bss = append(r.bss, r.placeBSS(t, rng, specs[flowID:flowID+cfg.ClientsPerAP], flowID))
			flowID += cfg.ClientsPerAP
		}
		if tl.upd != nil {
			tl.upd.Start()
		}
	}
	for _, a := range r.acts {
		a.Start()
	}
	if r.shards > 1 {
		r.verifyPartition()
	}
	if cfg.Obs != nil {
		r.observe(cfg.Obs)
	}

	// Settle, one unconditional assignment for everyone (on the
	// coordinator, with every shard paused on the same instant), then
	// staggered periodic re-evaluation on each BSS's own engine: AP i
	// re-runs its selector every AssignPeriod at phase i/N — the
	// desynchronised probing of real independent APs, which lets each
	// AP see its neighbors' moves instead of the whole city
	// re-optimising against a stale snapshot in lockstep. The settle
	// round and the mic samples ride runAfterTies, so they see every
	// other event at their instant done; on the tiled layout each such
	// coordinator event also bounds a conservative window there. BSSs a
	// fork adds later join neither.
	bss := r.bss
	runAfterTies(r.coord, cfg.Settle, func() {
		for _, b := range bss {
			r.evaluate(b, false)
		}
		for _, b := range bss {
			b.snapshotRx()
		}
	})
	for i, b := range bss {
		// The copy lets the closures below capture b by value: a range
		// variable they captured directly would move to the heap, one
		// allocation per BSS.
		b, eng := b, r.tiles[b.tile].w.eng
		phase := cfg.AssignPeriod * time.Duration(i) / time.Duration(len(bss))
		for t := cfg.Settle + cfg.AssignPeriod + phase; t < r.end; t += cfg.AssignPeriod {
			eng.Schedule(t, func() { r.evaluate(b, true) })
		}
	}

	// Measurement window: sample mic occupancy of each operating
	// channel as the Markov schedules churn.
	for t := cfg.Settle + denseCitySampleStep; t <= r.end; t += denseCitySampleStep {
		runAfterTies(r.coord, t, r.sampleMics)
	}
	if wallBuild != nil {
		wallBuild.Stop()
		r.wallRun.Start()
	}
	return r
}

// layOutContinuous is the continuous city: one square on one
// sim.Engine, which is also the coordinator, and every node drawing
// backoff from the engine's shared stream.
func (r *cityRun) layOutContinuous() {
	w := spatialWorld(r.cfg.Seed)
	r.coord, r.airs = w.eng, []*mac.Air{w.air}
	r.rand = func(eng *sim.Engine, _ int) *rand.Rand { return eng.Rand() }
	r.tiles = []*cityTile{{w: w, side: citySide(r.cfg, 1)}}
}

// citySide is the side length in meters of each of n equal squares
// that together hold the config's APs at its density.
func citySide(cfg DenseCityConfig, n int) float64 {
	return math.Sqrt(float64(cfg.APs)/float64(n)/cfg.DensityPerKm2) * 1000
}

// newMics builds one Markov mic per free channel on eng, each on its
// own seeded schedule (audible city-wide; spatially scoped incumbents
// are the Station model, exercised by the spatial scenarios).
func (r *cityRun) newMics(eng *sim.Engine) ([]*incumbent.Mic, []*dynamics.Activity) {
	var mics []*incumbent.Mic
	var acts []*dynamics.Activity
	if r.cfg.MicDuty > 0 {
		for i, u := range r.free {
			m := incumbent.NewMic(eng, u)
			mics = append(mics, m)
			acts = append(acts, dynamics.NewDutyActivity(eng, m, r.cfg.MicDuty, micChurnCycle, r.cfg.Seed*1009+int64(i)*613))
		}
	}
	return mics, acts
}

// micMapOf returns the base map with every active mic's channel
// occupied.
func (r *cityRun) micMapOf(mics []*incumbent.Mic) func() spectrum.Map {
	return func() spectrum.Map {
		m := r.base
		for _, mic := range mics {
			if mic.Active() {
				m = m.SetOccupied(mic.Channel)
			}
		}
		return m
	}
}

// placeBSS builds BSS number len(r.bss) in tile t: its AP uniform over
// the tile's inset square on a uniform free 5 MHz channel, and each
// client 10-40 m from it carrying the flow of the matching spec, ids
// from flowID up. Draws come from rng in a fixed order, so the build
// and the add-aps fork edit place BSSs the same way.
func (r *cityRun) placeBSS(t int, rng *rand.Rand, specs []traffic.Spec, flowID int) *denseBSS {
	cfg, tl := r.cfg, r.tiles[t]
	w := tl.w
	apID := denseCityIDBase + len(r.bss)*(cfg.ClientsPerAP+1)
	span := tl.side - 2*tl.inset
	apPos := mac.Position{
		X: tl.origin + tl.inset + rng.Float64()*span,
		Y: tl.inset + rng.Float64()*span,
	}
	ch := spectrum.Chan(r.free[rng.Intn(len(r.free))], spectrum.W5)
	b := &denseBSS{tile: t, ids: map[int]bool{apID: true}}
	b.ap = mac.NewNode(w.eng, w.air, apID, ch, true)
	b.ap.SetPosition(apPos)
	b.ap.SetRand(r.rand(w.eng, apID))
	if cfg.QueueLimit > 0 {
		b.ap.SetQueueLimit(cfg.QueueLimit)
	}
	for c, spec := range specs {
		id := apID + 1 + c
		cl := mac.NewNode(w.eng, w.air, id, ch, false)
		ang := rng.Float64() * 2 * math.Pi
		d := 10 + rng.Float64()*30 // 10-40 m: deep inside decode range
		clPos := mac.Position{X: apPos.X + d*math.Cos(ang), Y: apPos.Y + d*math.Sin(ang)}
		cl.SetPosition(clPos)
		cl.SetRand(r.rand(w.eng, id))
		b.clients = append(b.clients, cl)
		b.ids[id] = true
		sender, receiver := traffic.Orient(spec, b.ap, cl)
		f := traffic.NewFlow(w.eng, flowID+c, spec, sender, receiver)
		f.Start()
		b.flows = append(b.flows, f)
		if tl.upd != nil {
			tl.upd.Track(id, &dynamics.RandomWaypoint{
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
	return b
}

// cityObsWindow is the trailing window of localObservation; the
// airtime gauges reuse it so /metrics and the selector see the same
// horizon.
const cityObsWindow = 1 * time.Second

// observe wires o to the city before the run starts. The snapshot
// ticker runs on the coordinator, so on the tiled layout every read
// lands at a barrier, and registration there keeps to what is
// shard-invariant: medium counters summed over the shard media
// (RegisterAirs drops the layout gauges), and no engine metrics — the
// coordinator dispatches barrier bookkeeping and each shard re-runs
// the mic replicas, so event counts legitimately vary with the shard
// count. The continuous city registers its engine, its medium, the
// trailing-window airtime gauges and an assignment-round tracer (span
// "assign.evaluate", event "bss.switch"). Both register MAC aggregates
// and the MCham histogram per tile (the continuous city's one tile has
// no name prefix; tile t's are "tileNN." whichever engine hosts it)
// and aggregate traffic totals (per-flow counters would mean thousands
// of metrics here).
func (r *cityRun) observe(o *obs.Observer) {
	o.Attach(r.coord)
	if r.shards == 0 {
		w := r.tiles[0].w
		obs.RegisterEngine(o.Reg, w.eng)
		obs.RegisterAir(o.Reg, w.air)
		obs.RegisterAirtime(o.Reg, w.air, cityObsWindow, r.free)
		r.trc = o.Tracer()
		r.evalID = r.trc.ID("assign.evaluate")
		r.switchID = r.trc.ID("bss.switch")
	} else {
		obs.RegisterAirs(o.Reg, r.airs)
	}
	tileNodes := make([][]*mac.Node, len(r.tiles))
	var flows []*traffic.Flow
	for _, b := range r.bss {
		tileNodes[b.tile] = append(tileNodes[b.tile], b.ap)
		tileNodes[b.tile] = append(tileNodes[b.tile], b.clients...)
		flows = append(flows, b.flows...)
	}
	for t, tl := range r.tiles {
		obs.RegisterNodes(o.Reg, tl.prefix+"mac", tileNodes[t])
		tl.hist = o.Reg.Hist(tl.prefix + "assign.mcham")
	}
	obs.RegisterFlowTotals(o.Reg, flows)
	o.Reg.GaugeFunc("incumbent.active_mics", func() float64 {
		n := 0
		for _, m := range r.mics {
			if m.Active() {
				n++
			}
		}
		return float64(n)
	})
	o.Start()
}

// localObservation is the AP's own view of the spectrum: airtime and AP
// counts as received at its position over the trailing window, own BSS
// excluded, fused with the incumbent map m. The window is long enough
// to average CBR burstiness into a stable airtime estimate — with a
// short one every observation is a fresh roll of the dice and
// hysteresis cannot hold. On the tiled layout the medium is the tile's
// shard's; spatial culling makes remote tiles invisible to the
// observer-relative airtime source anyway.
func (r *cityRun) localObservation(b *denseBSS, now time.Duration, m spectrum.Map) assign.Observation {
	from := now - cityObsWindow
	if from < 0 {
		from = 0
	}
	src := &radio.TrueAirtime{Air: r.tiles[b.tile].w.air, Exclude: b.ids, Observer: b.ap.ID}
	return radio.Observe(src, m, from, now, -1)
}

// evaluate runs one AP's hysteresis-selector round against its own
// engine's mic set. The first round (empty selector state) assigns
// unconditionally; later rounds switch only past the hysteresis margin
// or when a mic lands on the operating channel (Selector's involuntary
// path).
func (r *cityRun) evaluate(b *denseBSS, countSwitches bool) {
	tl := r.tiles[b.tile]
	now := tl.w.eng.Now()
	sel, switched := b.sel.Evaluate(r.localObservation(b, now, tl.micMap()), nil)
	if tl.hist != nil && sel.OK {
		tl.hist.Observe(sel.Metric)
	}
	if r.trc != nil {
		r.trc.Span(r.evalID, now, int64(b.ap.ID))
	}
	if !switched || !sel.OK || sel.Channel == b.ap.Channel() {
		return
	}
	b.retune(sel.Channel)
	if r.trc != nil {
		r.trc.Event(r.switchID, int64(b.ap.ID))
	}
	if countSwitches {
		b.switches++
	}
}

// denseCitySampleStep is the mic-occupancy sampling cadence of the
// measurement window.
const denseCitySampleStep = 250 * time.Millisecond

// sampleMics takes one mic-occupancy sample across every BSS against
// the coordinator's mic set.
func (r *cityRun) sampleMics() {
	for _, b := range r.bss {
		r.totalSamples++
		hit := false
		for _, mic := range r.mics {
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

// advanceTo runs the world to virtual time t (clamped to the run's
// end; never backwards). Every scenario stage is an engine event, so
// advancing in any number of steps is byte-identical to advancing in
// one — the property the checkpoint replay tests pin.
func (r *cityRun) advanceTo(t time.Duration) {
	if t > r.end {
		t = r.end
	}
	if r.se != nil {
		r.se.RunUntil(t)
		return
	}
	r.coord.RunUntil(t)
}

// now returns the run's current virtual time (the coordinator clock).
func (r *cityRun) now() time.Duration {
	if r.se != nil {
		return r.se.Now()
	}
	return r.coord.Now()
}

// finish summarizes the completed run, and on the tiled layout renders
// its canonical digest. It is memoized: the first call stops the
// walkers, mics, generators and the observer and computes the metrics;
// later calls return the same result.
func (r *cityRun) finish() DenseCityResult {
	if r.finished {
		return r.result
	}
	r.finished = true
	cfg, bss := r.cfg, r.bss
	if r.wallRun != nil {
		r.wallRun.Stop()
		r.wallSummarize.Start()
	}

	// Metrics.
	var bits float64
	for _, b := range bss {
		bits += float64(b.deliveredSince()) * 8
	}
	m := r.micMap()
	var quality float64
	var switches int
	for _, b := range bss {
		switches += b.switches
		o := r.localObservation(b, r.end, m)
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
			quality++ // nothing is free anywhere: the AP is trivially optimal
		}
	}
	for _, tl := range r.tiles {
		if tl.upd != nil {
			tl.upd.Stop()
		}
	}
	for _, a := range r.acts {
		a.Stop()
	}
	ifree := 1.0
	if r.totalSamples > 0 {
		ifree = float64(r.freeSamples) / float64(r.totalSamples)
	}
	// Per-flow telemetry: medians across flows of each flow's sketch
	// estimates, and the city-wide drop rate.
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
	if r.shards > 0 {
		r.digest = r.tiledDigest(bits, quality, switches, dropRate)
	}
	if r.wallRun != nil {
		r.wallSummarize.Stop()
	}
	if cfg.Obs != nil {
		cfg.Obs.Stop()
		cfg.Obs.Flush()
	}
	// The per-BSS means divide by every BSS summed above, which after a
	// fork's add-aps edit includes the added ones.
	nodes := 0
	for _, b := range bss {
		nodes += 1 + len(b.clients)
	}
	r.result = DenseCityResult{
		APs:                  len(bss),
		Nodes:                nodes,
		AreaKm2:              float64(cfg.APs) / cfg.DensityPerKm2,
		Tiles:                cfg.Tiles,
		Shards:               r.shards,
		GoodputMbps:          bits / cfg.Measure.Seconds() / 1e6,
		MChamQuality:         quality / float64(len(bss)),
		InterferenceFreeFrac: ifree,
		SwitchesPerBSS:       float64(switches) / float64(len(bss)),
		FlowDelayP50Ms:       trace.Median(p50s),
		FlowDelayP95Ms:       trace.Median(p95s),
		FlowDropRate:         dropRate,
		WallClock:            time.Since(r.start),
	}
	return r.result
}

// DenseCityMediumLoad drives a dense-city transmission load through the
// raw air medium — no DCF state machine, no traffic generators — and
// returns the number of delivered data frames. It is the benchmark
// harness isolating exactly what spatial culling changes: the launch
// fan-out, the delivery fan-out, and the interference scan, at a fixed
// 1000+-node scale. Each AP fires a unicast data frame at a client
// every 10 ms (the client's MAC answers with a real ACK) and a beacon
// plus the WhiteFi CTS-to-self every 100 ms (both broadcast, the
// expensive fan-out), for one virtual second.
func DenseCityMediumLoad(aps int, seed int64) int64 {
	const (
		clientsPerAP = 2
		densityKm2   = 24.0
		dataInterval = 10 * time.Millisecond
		beaconEvery  = 100 * time.Millisecond
		run          = 1 * time.Second
	)
	rng := rand.New(rand.NewSource(seed))
	w := spatialWorld(seed)
	sideM := math.Sqrt(float64(aps)/densityKm2) * 1000
	free := incumbent.SimulationBaseMap().FreeChannels()

	type pair struct {
		ap  *mac.Node
		cls []*mac.Node
	}
	pairs := make([]pair, aps)
	for i := range pairs {
		apID := denseCityIDBase + i*(clientsPerAP+1)
		apPos := mac.Position{X: rng.Float64() * sideM, Y: rng.Float64() * sideM}
		ch := spectrum.Chan(free[rng.Intn(len(free))], spectrum.W5)
		p := pair{ap: mac.NewNode(w.eng, w.air, apID, ch, true)}
		p.ap.SetPosition(apPos)
		for c := 0; c < clientsPerAP; c++ {
			cl := mac.NewNode(w.eng, w.air, apID+1+c, ch, false)
			ang := rng.Float64() * 2 * math.Pi
			d := 10 + rng.Float64()*30
			cl.SetPosition(mac.Position{X: apPos.X + d*math.Cos(ang), Y: apPos.Y + d*math.Sin(ang)})
			p.cls = append(p.cls, cl)
		}
		pairs[i] = p
		phase := time.Duration(rng.Int63n(int64(dataInterval)))
		for t := phase; t < run; t += dataInterval {
			at, tgt := t, p.cls[rng.Intn(len(p.cls))].ID
			w.eng.Schedule(at, func() {
				w.air.Transmit(p.ap.ID, p.ap.Channel(), phy.DataFrame(p.ap.ID, tgt, 1000), mac.DefaultTxPowerDBm, true)
			})
		}
		for t := phase; t < run; t += beaconEvery {
			at := t
			w.eng.Schedule(at, func() {
				tx := w.air.Transmit(p.ap.ID, p.ap.Channel(), phy.BeaconFrame(p.ap.ID, nil), mac.DefaultTxPowerDBm, true)
				w.eng.Schedule(tx.End+phy.SIFS(p.ap.Channel().Width), func() {
					w.air.Transmit(p.ap.ID, p.ap.Channel(), phy.CTSFrame(p.ap.ID), mac.DefaultTxPowerDBm, true)
				})
			})
		}
	}
	w.eng.RunUntil(run + 100*time.Millisecond)
	var delivered int64
	for _, p := range pairs {
		for _, cl := range p.cls {
			delivered += int64(cl.Stats.RxData)
		}
	}
	return delivered
}

// denseCitySweepAPs is the default N sweep of the DenseCity table:
// up to 1000+ nodes at the default 3 nodes per BSS.
var denseCitySweepAPs = []int{25, 100, 400}

// DenseCity sweeps the dense-deployment scenario over reps seeds per
// AP count on the parallel harness and returns per-N aggregates.
func DenseCity(reps int) []DenseCityResult {
	cells := make([]DenseCityResult, len(denseCitySweepAPs)*reps)
	runIndexed(len(cells), func(i int) {
		cells[i] = DenseCityRun(DenseCityConfig{
			APs:  denseCitySweepAPs[i/reps],
			Seed: int64(8191 + 257*(i%reps)),
		})
	})
	out := make([]DenseCityResult, len(denseCitySweepAPs))
	for ni := range denseCitySweepAPs {
		agg := DenseCityResult{}
		for r := 0; r < reps; r++ {
			c := cells[ni*reps+r]
			agg.APs, agg.Nodes, agg.AreaKm2 = c.APs, c.Nodes, c.AreaKm2
			agg.GoodputMbps += c.GoodputMbps
			agg.MChamQuality += c.MChamQuality
			agg.InterferenceFreeFrac += c.InterferenceFreeFrac
			agg.SwitchesPerBSS += c.SwitchesPerBSS
			agg.WallClock += c.WallClock
		}
		n := float64(reps)
		agg.GoodputMbps /= n
		agg.MChamQuality /= n
		agg.InterferenceFreeFrac /= n
		agg.SwitchesPerBSS /= n
		agg.WallClock /= time.Duration(reps)
		out[ni] = agg
	}
	return out
}

// denseCityTrafficMixes are the flow populations of the
// traffic-parameterized city sweep: each pure model, then the
// heterogeneous blend with 30% uplink flows.
var denseCityTrafficMixes = []struct {
	name   string
	models []traffic.Model
	uplink float64
}{
	{"cbr", []traffic.Model{traffic.CBR}, 0},
	{"poisson", []traffic.Model{traffic.Poisson}, 0},
	{"burst", []traffic.Model{traffic.Burst}, 0},
	{"web", []traffic.Model{traffic.Web}, 0},
	{"mixed", traffic.Models(), 0.3},
}

// DenseCityTraffic runs the traffic-parameterized city over every
// (mix, AP count) pair, reps seeds each, on the parallel harness, and
// returns per-pair aggregates in sweep order (mix-major).
func DenseCityTraffic(reps int, apCounts []int) []DenseCityResult {
	nc := len(apCounts)
	cells := make([]DenseCityResult, len(denseCityTrafficMixes)*nc*reps)
	runIndexed(len(cells), func(i int) {
		mix := denseCityTrafficMixes[i/(nc*reps)]
		aps := apCounts[i/reps%nc]
		cells[i] = DenseCityRun(DenseCityConfig{
			APs:        aps,
			Seed:       int64(8191 + 257*(i%reps)),
			Traffic:    mix.models,
			UplinkFrac: mix.uplink,
			QueueLimit: 128,
		})
	})
	out := make([]DenseCityResult, len(denseCityTrafficMixes)*nc)
	for p := range out {
		agg := DenseCityResult{}
		for r := 0; r < reps; r++ {
			c := cells[p*reps+r]
			agg.APs, agg.Nodes, agg.AreaKm2 = c.APs, c.Nodes, c.AreaKm2
			agg.GoodputMbps += c.GoodputMbps
			agg.InterferenceFreeFrac += c.InterferenceFreeFrac
			agg.FlowDelayP50Ms += c.FlowDelayP50Ms
			agg.FlowDelayP95Ms += c.FlowDelayP95Ms
			agg.FlowDropRate += c.FlowDropRate
		}
		n := float64(reps)
		agg.GoodputMbps /= n
		agg.InterferenceFreeFrac /= n
		agg.FlowDelayP50Ms /= n
		agg.FlowDelayP95Ms /= n
		agg.FlowDropRate /= n
		out[p] = agg
	}
	return out
}

// DenseCityTrafficTable renders the traffic-parameterized city sweep:
// per-flow delay percentiles and drop rate per mix and scale.
func DenseCityTrafficTable(reps int) *trace.Table {
	return denseCityTrafficTableFor(reps, denseCitySweepAPs)
}

func denseCityTrafficTableFor(reps int, apCounts []int) *trace.Table {
	t := &trace.Table{
		Title:   "DenseCity x traffic mixes: per-flow delay/drop telemetry at city scale",
		Headers: []string{"mix", "aps", "nodes", "goodput(Mbps)", "p50(ms)", "p95(ms)", "drop-rate", "ifree-frac"},
	}
	rows := DenseCityTraffic(reps, apCounts)
	for i, r := range rows {
		t.AddRow(denseCityTrafficMixes[i/len(apCounts)].name,
			fmt.Sprintf("%d", r.APs),
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%.1f", r.GoodputMbps),
			fmt.Sprintf("%.1f", r.FlowDelayP50Ms),
			fmt.Sprintf("%.1f", r.FlowDelayP95Ms),
			fmt.Sprintf("%.3f", r.FlowDropRate),
			fmt.Sprintf("%.3f", r.InterferenceFreeFrac))
	}
	return t
}

// DenseCityTable renders the dense-deployment sweep.
func DenseCityTable(reps int) *trace.Table {
	t := &trace.Table{
		Title:   "DenseCity: N BSSs over km² of log-distance medium, staggered MCham assignment, Markov mics",
		Headers: []string{"aps", "nodes", "area(km2)", "goodput(Mbps)", "mcham-quality", "ifree-frac", "switch/bss"},
	}
	// WallClock stays out of the rendered table: tables are pinned by
	// determinism tests and host timing is not a function of the seed.
	for _, p := range DenseCity(reps) {
		t.AddRow(fmt.Sprintf("%d", p.APs),
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.1f", p.AreaKm2),
			fmt.Sprintf("%.1f", p.GoodputMbps),
			fmt.Sprintf("%.3f", p.MChamQuality),
			fmt.Sprintf("%.3f", p.InterferenceFreeFrac),
			fmt.Sprintf("%.2f", p.SwitchesPerBSS))
	}
	return t
}
