package exp

import (
	"fmt"
	"math/rand"
	"time"

	"whitefi/internal/core"
	"whitefi/internal/dynamics"
	"whitefi/internal/incumbent"
	"whitefi/internal/radio"
	"whitefi/internal/trace"
	"whitefi/internal/traffic"
)

// MixedTraffic is the heterogeneous-load scenario: one WhiteFi BSS
// carrying a population of generated flows (CBR, Poisson, bursty
// ON/OFF, closed-loop web — mixed directions) over background
// interferers and Markov microphones, judged on the per-flow axis the
// mmWave WLAN literature evaluates: rate and delay distributions under
// mixed traffic, not aggregate goodput alone. It is the first scenario
// that exercises WhiteFi's adaptation machinery (MCham width selection,
// incumbent switches) against realistic load.

// MixedTrafficConfig parameterizes one heterogeneous-load run.
type MixedTrafficConfig struct {
	// Clients is the number of associated clients (= flows); 0 selects 6.
	Clients int
	// Background is the number of CBR interferer pairs; 0 selects 6.
	Background int
	// Mix describes the flow population (models, uplink fraction).
	// Mix.Seed is derived from Seed when zero.
	Mix traffic.Mix
	// Seed drives the world (engine, background placement, mics).
	Seed int64
	// Settle is the association warm-up before flows start; 0 selects 2 s.
	Settle time.Duration
	// Measure is the window flows run and are measured over; 0 selects 20 s.
	Measure time.Duration
	// QueueLimit bounds the AP egress queue; 0 selects 128 frames.
	QueueLimit int
}

func (c MixedTrafficConfig) withDefaults() MixedTrafficConfig {
	if c.Clients == 0 {
		c.Clients = 6
	}
	if c.Background == 0 {
		c.Background = 6
	}
	if c.Settle == 0 {
		c.Settle = 2 * time.Second
	}
	if c.Measure == 0 {
		c.Measure = 20 * time.Second
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 128
	}
	if c.Mix.Seed == 0 {
		c.Mix.Seed = c.Seed*131 + 7
	}
	return c
}

// MixedTrafficResult aggregates one run's per-flow telemetry. The
// percentile fields are medians across flows of each flow's own sketch
// estimate — the per-flow distribution the scenario exists to expose.
type MixedTrafficResult struct {
	Flows       int
	UplinkFlows int
	// GoodputMbps is the summed delivered payload rate across flows.
	GoodputMbps float64
	// DelayP50Ms / DelayP95Ms are medians across flows of the per-flow
	// p50 / p95 delivery delay (milliseconds).
	DelayP50Ms float64
	DelayP95Ms float64
	// JitterMs is the median across flows of per-flow mean jitter.
	JitterMs float64
	// DropRate is total egress-queue drops over total generated packets.
	DropRate float64
	// Switches counts the AP's channel switches during the run.
	Switches int
	// Records holds the per-flow summaries, in flow order.
	Records []trace.FlowRecord
}

// MixedTrafficRun executes one heterogeneous-load BSS and reports its
// per-flow telemetry. Deterministic per config: the world, mic
// schedules, flow models, directions and generator realizations all
// derive from the seeds.
func MixedTrafficRun(cfg MixedTrafficConfig) MixedTrafficResult {
	r := buildMixedTraffic(cfg)
	r.advanceTo(r.end)
	return r.finish()
}

// mixedRun is one in-flight MixedTraffic scenario: the built world plus
// everything finish needs. All scenario stages (flow start at settle)
// are engine events, so the run can be advanced in arbitrary steps —
// the checkpoint layer's session contract.
type mixedRun struct {
	cfg   MixedTrafficConfig
	w     *world
	net   *core.Network
	mics  []*incumbent.Mic
	acts  []*dynamics.Activity
	flows []*traffic.Flow
	end   time.Duration

	finished bool
	result   MixedTrafficResult
}

// buildMixedTraffic constructs the scenario world at virtual time zero
// with every stage pre-scheduled.
func buildMixedTraffic(cfg MixedTrafficConfig) *mixedRun {
	cfg = cfg.withDefaults()
	w := newWorld(cfg.Seed)
	base := incumbent.SimulationBaseMap()

	mics, acts := markovMics(w.eng, base.FreeChannels(), defaultMicDuty, cfg.Seed)
	sensors := make([]*radio.IncumbentSensor, cfg.Clients+1)
	for i := range sensors {
		sensors[i] = &radio.IncumbentSensor{Base: base, Mics: mics}
	}
	net := core.NewNetwork(w.eng, w.air, core.Config{ProbePeriod: 2 * time.Second}, sensors)

	rng := rand.New(rand.NewSource(cfg.Seed * 13))
	w.backgroundPairs(cfg.Background, base, 30*time.Millisecond, rng)
	for _, a := range acts {
		a.Start()
	}

	r := &mixedRun{cfg: cfg, w: w, net: net, mics: mics, acts: acts, end: cfg.Settle + cfg.Measure}
	// Flows start only after association settles, so telemetry covers
	// exactly the measurement window. runAfterTies keeps the start
	// behind every event already queued at the settle instant, exactly
	// where the old host loop placed it.
	runAfterTies(w.eng, cfg.Settle, func() {
		r.flows = net.StartTraffic(cfg.Mix.Specs(cfg.Clients), cfg.QueueLimit)
	})
	return r
}

// advanceTo runs the world to virtual time t, clamped to the run end.
func (r *mixedRun) advanceTo(t time.Duration) {
	if t > r.end {
		t = r.end
	}
	r.w.eng.RunUntil(t)
}

// now returns the run's current virtual time.
func (r *mixedRun) now() time.Duration { return r.w.eng.Now() }

// finish stops traffic and summarizes the run. Memoized: only the
// first call mutates (flow stop, record extraction).
func (r *mixedRun) finish() MixedTrafficResult {
	if r.finished {
		return r.result
	}
	r.finished = true
	cfg, net, flows := r.cfg, r.net, r.flows
	net.StopTraffic()

	res := MixedTrafficResult{Flows: len(flows)}
	var p50s, p95s, jits []float64
	var generated, dropped int
	for _, f := range flows {
		rec := f.Record(cfg.Measure)
		res.Records = append(res.Records, rec)
		if f.Uplink() {
			res.UplinkFlows++
		}
		res.GoodputMbps += rec.GoodputMbps
		p50s = append(p50s, rec.DelayP50Ms)
		p95s = append(p95s, rec.DelayP95Ms)
		jits = append(jits, rec.JitterMs)
		generated += f.Tel.Generated
		dropped += f.Tel.QueueDropped
	}
	res.DelayP50Ms = trace.Median(p50s)
	res.DelayP95Ms = trace.Median(p95s)
	res.JitterMs = trace.Median(jits)
	if generated > 0 {
		res.DropRate = float64(dropped) / float64(generated)
	}
	res.Switches = len(net.AP.Switches)
	r.result = res
	return res
}

// mixedTrafficMixes are the named mixes of the MixedTraffic table: each
// pure model, then the heterogeneous blend with 30% uplink flows.
var mixedTrafficMixes = []struct {
	name string
	mix  traffic.Mix
}{
	{"cbr", traffic.Mix{Models: []traffic.Model{traffic.CBR}}},
	{"poisson", traffic.Mix{Models: []traffic.Model{traffic.Poisson}}},
	{"burst", traffic.Mix{Models: []traffic.Model{traffic.Burst}}},
	{"web", traffic.Mix{Models: []traffic.Model{traffic.Web}}},
	{"mixed", traffic.Mix{Models: traffic.Models(), UplinkFrac: 0.3}},
}

// MixedTraffic sweeps the named mixes over reps seeds on the parallel
// harness and returns per-mix aggregates, in mix order.
func MixedTraffic(reps int) []MixedTrafficResult {
	cells := make([]MixedTrafficResult, len(mixedTrafficMixes)*reps)
	runIndexed(len(cells), func(i int) {
		mi, r := i/reps, i%reps
		cells[i] = MixedTrafficRun(MixedTrafficConfig{
			Mix:  mixedTrafficMixes[mi].mix,
			Seed: int64(4099 + 389*r),
		})
	})
	out := make([]MixedTrafficResult, len(mixedTrafficMixes))
	for mi := range mixedTrafficMixes {
		agg := MixedTrafficResult{}
		for r := 0; r < reps; r++ {
			c := cells[mi*reps+r]
			agg.Flows, agg.UplinkFlows = c.Flows, c.UplinkFlows
			agg.GoodputMbps += c.GoodputMbps
			agg.DelayP50Ms += c.DelayP50Ms
			agg.DelayP95Ms += c.DelayP95Ms
			agg.JitterMs += c.JitterMs
			agg.DropRate += c.DropRate
			agg.Switches += c.Switches
		}
		n := float64(reps)
		agg.GoodputMbps /= n
		agg.DelayP50Ms /= n
		agg.DelayP95Ms /= n
		agg.JitterMs /= n
		agg.DropRate /= n
		agg.Switches /= reps
		out[mi] = agg
	}
	return out
}

// MixedTrafficTable renders the heterogeneous-load sweep: per-flow
// delay percentiles, jitter, drop rate and aggregate goodput per mix.
func MixedTrafficTable(reps int) *trace.Table {
	t := &trace.Table{
		Title:   "MixedTraffic: one BSS under generated flow mixes, per-flow delay/drop telemetry",
		Headers: []string{"mix", "flows", "up", "goodput(Mbps)", "p50(ms)", "p95(ms)", "jitter(ms)", "drop-rate", "switches"},
	}
	for i, r := range MixedTraffic(reps) {
		t.AddRow(mixedTrafficMixes[i].name,
			fmt.Sprintf("%d", r.Flows),
			fmt.Sprintf("%d", r.UplinkFlows),
			fmt.Sprintf("%.2f", r.GoodputMbps),
			fmt.Sprintf("%.1f", r.DelayP50Ms),
			fmt.Sprintf("%.1f", r.DelayP95Ms),
			fmt.Sprintf("%.2f", r.JitterMs),
			fmt.Sprintf("%.3f", r.DropRate),
			fmt.Sprintf("%d", r.Switches))
	}
	return t
}
