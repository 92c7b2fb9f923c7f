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
	Mobility bool
	// Obs, when non-nil, is attached to the run's engine: the standard
	// subsystem metrics are registered, assignment rounds are traced
	// (span "assign.evaluate", event "bss.switch", histogram
	// "assign.mcham"), and snapshots emit per the observer's Period to
	// its Out. Snapshot bytes are a pure function of the config, so
	// they are byte-identical across harness worker counts.
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

// cityRun is one dense-city world mid-flight: everything DenseCityRun
// used to drive from host loops is pre-scheduled on the engine at
// build, so the run can be advanced to any virtual time, digested,
// checkpointed, and resumed with no behavioral seam. Built by
// buildDenseCity; advanced by advanceTo; summarized once by finish.
type cityRun struct {
	cfg     DenseCityConfig
	start   time.Time
	w       *world
	bss     []*denseBSS
	mics    []*incumbent.Mic
	acts    []*dynamics.Activity
	areaKm2 float64
	end     time.Duration

	freeSamples, totalSamples int64

	// sideM and free capture the placement geometry and the channel
	// pool so fork-time edits can place new BSSs the same way the
	// build did.
	sideM float64
	free  []spectrum.UHF

	micMap   func() spectrum.Map
	localObs func(b *denseBSS, now time.Duration, m spectrum.Map) assign.Observation

	wallRun, wallSummarize *obs.Phase

	finished bool
	result   DenseCityResult
}

// DenseCityRun executes one dense-deployment world and reports its
// metrics. The run is deterministic per config (placement, channels and
// mic schedules all derive from Seed) and identical with and without
// culling.
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
	if cfg.Tiles > 0 {
		r, _ := DenseCityTiled(cfg)
		return r
	}
	r := buildDenseCity(cfg)
	r.advanceTo(r.end)
	return r.finish()
}

// buildDenseCity constructs the world and pre-schedules every stage of
// the run — the settle-time assignment round, the staggered periodic
// re-evaluations, and the mic-occupancy sampling — as engine events,
// so DenseCityRun is build + advance + finish and a checkpoint can
// pause the run at any instant in between.
func buildDenseCity(cfg DenseCityConfig) *cityRun {
	cfg = cfg.withDefaults()
	start := time.Now()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := spatialWorld(cfg.Seed)

	// Optional observability: wall phases bracket the host-side stages
	// (strictly outside the deterministic snapshot stream); spans and
	// the MCham histogram are recorded only when an observer is wired.
	var wallBuild, wallRun, wallSummarize *obs.Phase
	if cfg.Obs != nil && cfg.Obs.Wall != nil {
		wallBuild = cfg.Obs.Wall.Phase("build")
		wallRun = cfg.Obs.Wall.Phase("run")
		wallSummarize = cfg.Obs.Wall.Phase("summarize")
		wallBuild.Start()
	}

	areaKm2 := float64(cfg.APs) / cfg.DensityPerKm2
	sideM := math.Sqrt(areaKm2) * 1000

	base := incumbent.SimulationBaseMap()
	free := base.FreeChannels()

	// Markov mics: one per free channel, each on its own seeded
	// schedule (audible city-wide; spatially scoped incumbents are the
	// Station model, exercised by the spatial scenarios).
	var mics []*incumbent.Mic
	var acts []*dynamics.Activity
	if cfg.MicDuty > 0 {
		for i, u := range free {
			m := incumbent.NewMic(w.eng, u)
			mics = append(mics, m)
			acts = append(acts, dynamics.NewDutyActivity(w.eng, m, cfg.MicDuty, micChurnCycle, cfg.Seed*1009+int64(i)*613))
		}
	}
	micMap := func() spectrum.Map {
		m := base
		for _, mic := range mics {
			if mic.Active() {
				m = m.SetOccupied(mic.Channel)
			}
		}
		return m
	}

	// Placement and initial channels. Flow specs come from traffic.Mix
	// (its own RNG stream), so the default (pure CBR downlink) leaves
	// the placement stream — and therefore the whole run — identical to
	// the pre-traffic-engine scenario.
	specs := traffic.Mix{
		Models:     cfg.Traffic,
		UplinkFrac: cfg.UplinkFrac,
		Seed:       cfg.Seed,
		Base:       traffic.Spec{Bytes: 1000, Interval: cfg.TrafficInterval},
	}.Specs(cfg.APs * cfg.ClientsPerAP)
	flowID := 0
	bss := make([]*denseBSS, cfg.APs)
	for i := range bss {
		apID := denseCityIDBase + i*(cfg.ClientsPerAP+1)
		apPos := mac.Position{X: rng.Float64() * sideM, Y: rng.Float64() * sideM}
		ch := spectrum.Chan(free[rng.Intn(len(free))], spectrum.W5)
		b := &denseBSS{ids: map[int]bool{apID: true}}
		b.ap = mac.NewNode(w.eng, w.air, apID, ch, true)
		b.ap.SetPosition(apPos)
		if cfg.QueueLimit > 0 {
			b.ap.SetQueueLimit(cfg.QueueLimit)
		}
		for c := 0; c < cfg.ClientsPerAP; c++ {
			id := apID + 1 + c
			cl := mac.NewNode(w.eng, w.air, id, ch, false)
			ang := rng.Float64() * 2 * math.Pi
			d := 10 + rng.Float64()*30 // 10-40 m: deep inside decode range
			cl.SetPosition(mac.Position{X: apPos.X + d*math.Cos(ang), Y: apPos.Y + d*math.Sin(ang)})
			b.clients = append(b.clients, cl)
			b.ids[id] = true
			sender, receiver := traffic.Orient(specs[flowID], b.ap, cl)
			f := traffic.NewFlow(w.eng, flowID, specs[flowID], sender, receiver)
			f.Start()
			b.flows = append(b.flows, f)
			flowID++
		}
		bss[i] = b
	}
	for _, a := range acts {
		a.Start()
	}

	// obsWindow is the trailing window of localObservation below; the
	// airtime gauges reuse it so /metrics and the selector see the same
	// horizon.
	const obsWindow = 1 * time.Second

	// Wire the observer: standard registrations over the whole city,
	// aggregate traffic totals (per-flow counters would mean thousands
	// of metrics here — whitefi-sim registers per-flow on its one-BSS
	// path), the assignment histogram, and the span tracer.
	var trc *obs.Tracer
	var mchamHist *obs.Hist
	var evalID, switchID obs.SpanID
	if o := cfg.Obs; o != nil {
		o.Attach(w.eng)
		obs.RegisterEngine(o.Reg, w.eng)
		obs.RegisterAir(o.Reg, w.air)
		obs.RegisterAirtime(o.Reg, w.air, obsWindow, free)
		var nodes []*mac.Node
		var flows []*traffic.Flow
		for _, b := range bss {
			nodes = append(nodes, b.ap)
			nodes = append(nodes, b.clients...)
			flows = append(flows, b.flows...)
		}
		obs.RegisterNodes(o.Reg, "mac", nodes)
		obs.RegisterFlowTotals(o.Reg, flows)
		o.Reg.GaugeFunc("incumbent.active_mics", func() float64 {
			n := 0
			for _, m := range mics {
				if m.Active() {
					n++
				}
			}
			return float64(n)
		})
		mchamHist = o.Reg.Hist("assign.mcham")
		trc = o.Tracer()
		evalID = trc.ID("assign.evaluate")
		switchID = trc.ID("bss.switch")
		o.Start()
	}

	// localObservation is the AP's own view of the spectrum: airtime
	// and AP counts as received at its position over the trailing
	// window, own BSS excluded, fused with the current incumbent map.
	// The window is long enough to average CBR burstiness into a stable
	// airtime estimate — with a short one every observation is a fresh
	// roll of the dice and hysteresis cannot hold.
	localObservation := func(b *denseBSS, now time.Duration, m spectrum.Map) assign.Observation {
		from := now - obsWindow
		if from < 0 {
			from = 0
		}
		src := &radio.TrueAirtime{Air: w.air, Exclude: b.ids, Observer: b.ap.ID}
		return radio.Observe(src, m, from, now, -1)
	}

	// evaluate runs one AP's hysteresis-selector round. The first round
	// (empty selector state) assigns unconditionally; later rounds
	// switch only past the hysteresis margin or when a mic lands on the
	// operating channel (Selector's involuntary path).
	evaluate := func(b *denseBSS, countSwitches bool) {
		startAt := w.eng.Now()
		sel, switched := b.sel.Evaluate(localObservation(b, w.eng.Now(), micMap()), nil)
		if mchamHist != nil && sel.OK {
			mchamHist.Observe(sel.Metric)
		}
		if trc != nil {
			trc.Span(evalID, startAt, int64(b.ap.ID))
		}
		if !switched || !sel.OK || sel.Channel == b.ap.Channel() {
			return
		}
		b.retune(sel.Channel)
		if trc != nil {
			trc.Event(switchID, int64(b.ap.ID))
		}
		if countSwitches {
			b.switches++
		}
	}

	r := &cityRun{
		cfg:           cfg,
		start:         start,
		w:             w,
		bss:           bss,
		mics:          mics,
		acts:          acts,
		areaKm2:       areaKm2,
		end:           cfg.Settle + cfg.Measure,
		sideM:         sideM,
		free:          free,
		micMap:        micMap,
		localObs:      localObservation,
		wallRun:       wallRun,
		wallSummarize: wallSummarize,
	}

	// Settle, one unconditional assignment for everyone, then staggered
	// periodic re-evaluation: AP i re-runs its selector every
	// AssignPeriod at phase i/N — the desynchronised probing of real
	// independent APs, which lets each AP see its neighbors' moves
	// instead of the whole city re-optimising against a stale snapshot
	// in lockstep. All of it is pre-scheduled here: the settle round
	// and the mic samples ride runAfterTies so they observe exactly the
	// state the old host loops saw after RunUntil.
	runAfterTies(w.eng, cfg.Settle, func() {
		for _, b := range bss {
			evaluate(b, false)
		}
		for _, b := range bss {
			b.snapshotRx()
		}
	})
	end := r.end
	for i, b := range bss {
		b := b
		phase := cfg.AssignPeriod * time.Duration(i) / time.Duration(len(bss))
		for t := cfg.Settle + cfg.AssignPeriod + phase; t < end; t += cfg.AssignPeriod {
			w.eng.Schedule(t, func() { evaluate(b, true) })
		}
	}

	// Measurement window: sample mic occupancy of each operating
	// channel as the Markov schedules churn.
	for t := cfg.Settle + denseCitySampleStep; t <= end; t += denseCitySampleStep {
		runAfterTies(w.eng, t, r.sampleMics)
	}
	if wallBuild != nil {
		wallBuild.Stop()
		wallRun.Start()
	}
	return r
}

// denseCitySampleStep is the mic-occupancy sampling cadence of the
// measurement window.
const denseCitySampleStep = 250 * time.Millisecond

// sampleMics takes one mic-occupancy sample across every BSS.
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
	r.w.eng.RunUntil(t)
}

// now returns the run's current virtual time.
func (r *cityRun) now() time.Duration { return r.w.eng.Now() }

// finish summarizes the completed run. It is memoized: the first call
// stops the generators and the observer and computes the metrics;
// later calls return the same result.
func (r *cityRun) finish() DenseCityResult {
	if r.finished {
		return r.result
	}
	r.finished = true
	cfg, bss, end := r.cfg, r.bss, r.end
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
		obs := r.localObs(b, end, m)
		cur := assign.MCham(obs, b.ap.Channel())
		best := cur
		for _, c := range spectrum.AllChannels() {
			if obs.Map.ChannelFree(c) {
				if v := assign.MCham(obs, c); v > best {
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
		AreaKm2:              r.areaKm2,
		GoodputMbps:          bits / cfg.Measure.Seconds() / 1e6,
		MChamQuality:         quality / float64(cfg.APs),
		InterferenceFreeFrac: ifree,
		SwitchesPerBSS:       float64(switches) / float64(cfg.APs),
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
