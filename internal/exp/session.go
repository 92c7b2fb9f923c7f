package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/core"
	"whitefi/internal/obs"
	"whitefi/internal/spectrum"
	"whitefi/internal/traffic"
)

// Session kinds: each scenario family wraps its run object
// (build/advance/finish) behind checkpoint.Session, so every family
// can be checkpointed, restored and served. The config is the compact
// JSON spec (not the internal config struct), so a checkpoint's replay
// recipe is exactly what a server client submits.
//
// What the section digests cover — and deliberately do not:
//
//   - Covered: the engine event queue (times, seqs, kinds), every MAC
//     node and medium counter, protocol state machines, flow
//     generators and their P² quantile sketches (mid-stream markers
//     included), injector schedules and outage logs, mic activity.
//   - Excluded: math/rand stream positions (unexportable without
//     reflection; divergence still surfaces transitively in the event
//     queue and counters within one event round), wall-clock phase
//     timers (non-deterministic by nature), and observer publication
//     buffers (derived state; the trailing-window airtime gauges
//     rebuild from the medium's transmission log, which IS digested).
//     TestSectionExclusions pins the exclusion list.

var sessionsOnce sync.Once

// RegisterSessions installs the scenario session kinds ("densecity",
// "tiledcity", "mixedtraffic", "faultstorm") into the checkpoint
// registry. Idempotent.
func RegisterSessions() {
	sessionsOnce.Do(func() {
		checkpoint.Register("densecity", citySessionBuilder("densecity"))
		checkpoint.Register("tiledcity", citySessionBuilder("tiledcity"))
		checkpoint.Register("mixedtraffic", buildMixedSession)
		checkpoint.Register("faultstorm", buildStormSession)
	})
}

// msDur converts a millisecond count to a Duration.
func msDur(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// CitySpec is the JSON scenario spec of the "densecity" (continuous)
// and "tiledcity" (sharded) session kinds. Zero fields select the
// scenario defaults; durations are milliseconds.
type CitySpec struct {
	// APs is the access-point count (required, 1..1024).
	APs int `json:"aps"`
	// ClientsPerAP is the per-AP client count; 0 selects 2.
	ClientsPerAP int `json:"clients_per_ap,omitempty"`
	// Seed drives placement, channels, traffic and mic schedules.
	Seed int64 `json:"seed,omitempty"`
	// SettleMS is the warm-up before assignment starts; 0 selects 2000.
	SettleMS int `json:"settle_ms,omitempty"`
	// MeasureMS is the measurement window; 0 selects 8000.
	MeasureMS int `json:"measure_ms,omitempty"`
	// QueueLimit bounds each AP egress queue; 0 keeps the MAC's
	// 512-frame default.
	QueueLimit int `json:"queue_limit,omitempty"`
	// Tiles (tiledcity only) is the guard-spaced tile count; 0 selects 1.
	Tiles int `json:"tiles,omitempty"`
	// Shards (tiledcity only) is the parallel shard count; 0 runs one
	// shard per tile.
	Shards int `json:"shards,omitempty"`
	// Workers (tiledcity only) caps the worker goroutines; 0 selects
	// GOMAXPROCS. Execution schedule only — results are identical at
	// any value.
	Workers int `json:"workers,omitempty"`
	// Mobility (tiledcity only) enables random-waypoint client motion.
	Mobility bool `json:"mobility,omitempty"`
	// TelemetryMS enables observer snapshots at this period, streamed
	// to the session's snapshot writer; 0 disables telemetry.
	TelemetryMS int `json:"telemetry_ms,omitempty"`
}

// cityConfig converts the spec to the internal scenario config,
// wiring a telemetry observer writing to out when requested.
func (sp CitySpec) cityConfig(out io.Writer) DenseCityConfig {
	cfg := DenseCityConfig{
		APs:          sp.APs,
		ClientsPerAP: sp.ClientsPerAP,
		Seed:         sp.Seed,
		Settle:       msDur(sp.SettleMS),
		Measure:      msDur(sp.MeasureMS),
		QueueLimit:   sp.QueueLimit,
		Tiles:        sp.Tiles,
		Shards:       sp.Shards,
		Workers:      sp.Workers,
		Mobility:     sp.Mobility,
	}
	if sp.TelemetryMS > 0 {
		cfg.Obs = &obs.Observer{Period: msDur(sp.TelemetryMS), Out: out}
	}
	return cfg
}

// validate rejects specs the scenario cannot run.
func (sp CitySpec) validate(tiled bool) error {
	if sp.APs < 1 || sp.APs > 1024 {
		return fmt.Errorf("aps must be 1..1024, got %d", sp.APs)
	}
	if sp.ClientsPerAP < 0 || sp.ClientsPerAP > 16 {
		return fmt.Errorf("clients_per_ap must be 0..16, got %d", sp.ClientsPerAP)
	}
	if sp.SettleMS < 0 || sp.MeasureMS < 0 || sp.TelemetryMS < 0 {
		return fmt.Errorf("durations must be non-negative")
	}
	if sp.QueueLimit < 0 {
		return fmt.Errorf("queue_limit must be non-negative, got %d", sp.QueueLimit)
	}
	if !tiled {
		if sp.Tiles != 0 || sp.Shards != 0 || sp.Workers != 0 || sp.Mobility {
			return fmt.Errorf("tiles, shards, workers and mobility are tiledcity parameters (use kind tiledcity)")
		}
		return nil
	}
	if sp.Tiles < 0 || sp.Shards < 0 || sp.Workers < 0 {
		return fmt.Errorf("tiles, shards and workers must be non-negative")
	}
	if sp.Tiles > sp.APs {
		return fmt.Errorf("tiles %d exceeds aps %d", sp.Tiles, sp.APs)
	}
	return nil
}

// CityResult is the JSON result payload of a city session: progress
// while running, the scenario result once complete. WallClock is
// zeroed — session results are replay artifacts and must be identical
// across reruns.
type CityResult struct {
	// Done reports whether the run reached its end time.
	Done bool `json:"done"`
	// AtNS is the session's virtual time, nanoseconds.
	AtNS int64 `json:"at_ns"`
	// Result is the scenario outcome, present once Done.
	Result *DenseCityResult `json:"result,omitempty"`
	// Digest is the tiled canonical digest (tiledcity only).
	Digest string `json:"digest,omitempty"`
}

// citySession adapts cityRun to checkpoint.Session, for both city
// kinds.
type citySession struct {
	kind  string
	spec  CitySpec
	run   *cityRun
	edits int
}

// citySessionBuilder returns the checkpoint.Builder of a city kind:
// "densecity" runs the continuous layout, "tiledcity" the tiled one
// (tiles 0 selecting one tile).
func citySessionBuilder(kind string) checkpoint.Builder {
	tiled := kind == "tiledcity"
	return func(raw json.RawMessage, opt checkpoint.Options) (checkpoint.Session, error) {
		var sp CitySpec
		if err := json.Unmarshal(raw, &sp); err != nil {
			return nil, fmt.Errorf("%s spec: %w", kind, err)
		}
		if err := sp.validate(tiled); err != nil {
			return nil, fmt.Errorf("%s spec: %w", kind, err)
		}
		cfg := sp.cityConfig(opt.SnapshotOut)
		if tiled && cfg.Tiles == 0 {
			cfg.Tiles = 1
		}
		return &citySession{kind: kind, spec: sp, run: buildCity(cfg)}, nil
	}
}

func (s *citySession) Kind() string              { return s.kind }
func (s *citySession) Config() interface{}       { return s.spec }
func (s *citySession) Now() time.Duration        { return s.run.now() }
func (s *citySession) End() time.Duration        { return s.run.end }
func (s *citySession) AdvanceTo(t time.Duration) { s.run.advanceTo(t) }

func (s *citySession) Sections() []checkpoint.Section {
	r := s.run
	nodes := 0
	flows := 0
	for _, b := range r.bss {
		nodes += 1 + len(b.clients)
		flows += len(b.flows)
	}
	eng := checkpoint.HashSection("engine", r.coord.Pending(), r.coord.DigestState)
	if r.se != nil {
		eng = checkpoint.HashSection("engine", r.se.Pending(), r.se.DigestState)
	}
	return []checkpoint.Section{
		eng,
		checkpoint.HashSection("air", len(r.airs), func(d *checkpoint.Digest) {
			for _, a := range r.airs {
				a.DigestState(d)
			}
		}),
		checkpoint.HashSection("mac", nodes, func(d *checkpoint.Digest) {
			for _, b := range r.bss {
				b.ap.DigestState(d)
				for _, cl := range b.clients {
					cl.DigestState(d)
				}
			}
		}),
		checkpoint.HashSection("bss", len(r.bss), r.digestBSS),
		checkpoint.HashSection("flows", flows, func(d *checkpoint.Digest) {
			for _, b := range r.bss {
				for _, f := range b.flows {
					f.DigestState(d)
				}
			}
		}),
		checkpoint.HashSection("mics", len(r.mics), func(d *checkpoint.Digest) {
			for _, m := range r.mics {
				m.DigestState(d)
			}
		}),
	}
}

// digestBSS renders the bss section: each BSS's operating channel,
// switch count, selector state and goodput baselines.
func (r *cityRun) digestBSS(d *checkpoint.Digest) {
	for i, b := range r.bss {
		cur, has := b.sel.Current()
		d.Row("bss").Num(int64(i)).Text("ch", b.ap.Channel()).Int("sw", int64(b.switches)).
			Text("cur", heldChannel{cur, has}).Ints("rx", b.lastRx).End()
	}
}

// heldChannel is a selector's current channel and whether it holds
// one, as the bss section renders it: "(uhf26, 5MHz)/true".
type heldChannel struct {
	ch spectrum.Channel
	ok bool
}

// AppendTo implements checkpoint.Appender.
func (h heldChannel) AppendTo(b []byte) []byte {
	return strconv.AppendBool(append(h.ch.AppendTo(b), '/'), h.ok)
}

func (s *citySession) Result() interface{} {
	if s.run.now() < s.run.end {
		return CityResult{AtNS: int64(s.run.now())}
	}
	res := s.run.finish()
	res.WallClock = 0
	return CityResult{Done: true, AtNS: int64(s.run.now()), Result: &res, Digest: s.run.digest}
}

// Apply implements fork-time what-if edits on the continuous city. Op
// "add-aps" drops N new BSSs (each with the config's clients and CBR
// flows) onto the city at edit-seeded uniform positions; the fork's
// future diverges from the control run only through their traffic.
// The tiled city takes no edits.
func (s *citySession) Apply(e checkpoint.Edit) error {
	if s.run.shards > 0 {
		return fmt.Errorf("%s supports no edits", s.kind)
	}
	switch e.Op {
	case "add-aps":
		if e.N < 1 || e.N > 256 {
			return fmt.Errorf("add-aps: n must be 1..256, got %d", e.N)
		}
		s.run.addBSS(e.N, e.Seed+int64(s.edits)*0x9E3779B9)
		s.edits++
		return nil
	default:
		return fmt.Errorf("unknown edit op %q (densecity supports add-aps)", e.Op)
	}
}

// addBSS places n new BSSs with flows at the current instant, with the
// build's placement but an independent seed. New BSSs carry traffic and
// count in the medium and the metrics, but do not join the staggered
// assignment rounds (their channels stay where the edit put them) — a
// pure what-if load injection.
func (r *cityRun) addBSS(n int, seed int64) {
	cfg := r.cfg
	rng := rand.New(rand.NewSource(seed))
	flowID := 0
	for _, b := range r.bss {
		flowID += len(b.flows)
	}
	specs := traffic.Mix{Seed: seed*977 + 13}.Specs(n * cfg.ClientsPerAP)
	for i := 0; i < n; i++ {
		b := r.placeBSS(0, rng, specs[i*cfg.ClientsPerAP:(i+1)*cfg.ClientsPerAP], flowID)
		flowID += cfg.ClientsPerAP
		b.snapshotRx()
		r.bss = append(r.bss, b)
	}
}

// MixedSpec is the JSON scenario spec of the "mixedtraffic" session
// kind. Zero fields select the scenario defaults; durations are
// milliseconds.
type MixedSpec struct {
	// Clients is the associated client (= flow) count; 0 selects 6.
	Clients int `json:"clients,omitempty"`
	// Background is the CBR interferer pair count; 0 selects 6.
	Background int `json:"background,omitempty"`
	// Seed drives the world, mic schedules and flow realizations.
	Seed int64 `json:"seed,omitempty"`
	// SettleMS is the association warm-up; 0 selects 2000.
	SettleMS int `json:"settle_ms,omitempty"`
	// MeasureMS is the measured flow window; 0 selects 20000.
	MeasureMS int `json:"measure_ms,omitempty"`
	// QueueLimit bounds the AP egress queue; 0 selects 128.
	QueueLimit int `json:"queue_limit,omitempty"`
	// Mixed selects the heterogeneous model blend with 30% uplink
	// flows; false runs the pure-CBR default.
	Mixed bool `json:"mixed,omitempty"`
}

// validate rejects specs the scenario cannot run.
func (sp MixedSpec) validate() error {
	if sp.Clients < 0 || sp.Clients > 256 {
		return fmt.Errorf("clients must be 0..256, got %d", sp.Clients)
	}
	if sp.Background < 0 || sp.Background > 256 {
		return fmt.Errorf("background must be 0..256, got %d", sp.Background)
	}
	if sp.SettleMS < 0 || sp.MeasureMS < 0 {
		return fmt.Errorf("durations must be non-negative")
	}
	if sp.QueueLimit < 0 {
		return fmt.Errorf("queue_limit must be non-negative, got %d", sp.QueueLimit)
	}
	return nil
}

// MixedResult is the JSON result payload of a mixedtraffic session.
type MixedResult struct {
	// Done reports whether the run reached its end time.
	Done bool `json:"done"`
	// AtNS is the session's virtual time, nanoseconds.
	AtNS int64 `json:"at_ns"`
	// Result is the scenario outcome, present once Done.
	Result *MixedTrafficResult `json:"result,omitempty"`
}

// mixedSession adapts mixedRun to checkpoint.Session.
type mixedSession struct {
	spec MixedSpec
	run  *mixedRun
}

func buildMixedSession(raw json.RawMessage, _ checkpoint.Options) (checkpoint.Session, error) {
	var sp MixedSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("mixedtraffic spec: %w", err)
	}
	if err := sp.validate(); err != nil {
		return nil, fmt.Errorf("mixedtraffic spec: %w", err)
	}
	cfg := MixedTrafficConfig{
		Clients:    sp.Clients,
		Background: sp.Background,
		Seed:       sp.Seed,
		Settle:     msDur(sp.SettleMS),
		Measure:    msDur(sp.MeasureMS),
		QueueLimit: sp.QueueLimit,
	}
	if sp.Mixed {
		cfg.Mix = traffic.Mix{Models: traffic.Models(), UplinkFrac: 0.3}
	}
	return &mixedSession{spec: sp, run: buildMixedTraffic(cfg)}, nil
}

func (s *mixedSession) Kind() string              { return "mixedtraffic" }
func (s *mixedSession) Config() interface{}       { return s.spec }
func (s *mixedSession) Now() time.Duration        { return s.run.now() }
func (s *mixedSession) End() time.Duration        { return s.run.end }
func (s *mixedSession) AdvanceTo(t time.Duration) { s.run.advanceTo(t) }

func (s *mixedSession) Sections() []checkpoint.Section {
	r := s.run
	return []checkpoint.Section{
		checkpoint.HashSection("engine", r.w.eng.Pending(), r.w.eng.DigestState),
		checkpoint.HashSection("air", r.w.air.NodeCount(), r.w.air.DigestState),
		protocolSection(r.net),
		checkpoint.HashSection("flows", len(r.flows), func(d *checkpoint.Digest) {
			for _, f := range r.flows {
				f.DigestState(d)
			}
		}),
		checkpoint.HashSection("mics", len(r.mics), func(d *checkpoint.Digest) {
			for _, m := range r.mics {
				m.DigestState(d)
			}
		}),
	}
}

func (s *mixedSession) Result() interface{} {
	if s.run.now() < s.run.end {
		return MixedResult{AtNS: int64(s.run.now())}
	}
	res := s.run.finish()
	return MixedResult{Done: true, AtNS: int64(s.run.now()), Result: &res}
}

// protocolSection digests a network's AP and client state machines.
func protocolSection(net *core.Network) checkpoint.Section {
	return checkpoint.HashSection("protocol", 1+len(net.Clients), func(d *checkpoint.Digest) {
		net.AP.DigestState(d)
		for _, c := range net.Clients {
			c.DigestState(d)
		}
	})
}

// StormSpec is the JSON scenario spec of the "faultstorm" session
// kind. Zero durations select the sweep defaults (150 s run, quiesce
// at 95 s).
type StormSpec struct {
	// Seed drives the world, injector schedule and loss overlay.
	Seed int64 `json:"seed,omitempty"`
	// Rate scales the injector's fault schedule; 0 is fault-free.
	Rate float64 `json:"rate,omitempty"`
	// RunMS is the cell's full virtual length; 0 selects 150000.
	RunMS int `json:"run_ms,omitempty"`
	// QuiesceMS is when injection stops; 0 selects 95000.
	QuiesceMS int `json:"quiesce_ms,omitempty"`
	// TelemetryMS enables observer snapshots at this period, streamed
	// to the session's snapshot writer; 0 disables telemetry.
	TelemetryMS int `json:"telemetry_ms,omitempty"`
}

// validate rejects specs the scenario cannot run.
func (sp StormSpec) validate() error {
	if sp.Rate < 0 || sp.Rate > 16 {
		return fmt.Errorf("rate must be 0..16, got %v", sp.Rate)
	}
	if sp.RunMS < 0 || sp.QuiesceMS < 0 || sp.TelemetryMS < 0 {
		return fmt.Errorf("durations must be non-negative")
	}
	return nil
}

// StormResult is the JSON result payload of a faultstorm session.
type StormResult struct {
	// Done reports whether the run reached its end time.
	Done bool `json:"done"`
	// AtNS is the session's virtual time, nanoseconds.
	AtNS int64 `json:"at_ns"`
	// Crashes / Stalls count injected AP crashes and scanner stalls.
	Crashes int `json:"crashes,omitempty"`
	Stalls  int `json:"stalls,omitempty"`
	// GoodputMbps is the delivered payload rate over the whole run.
	GoodputMbps float64 `json:"goodput_mbps,omitempty"`
	// Outages counts closed client outage episodes; Orphans counts
	// clients still disconnected at the end.
	Outages int `json:"outages,omitempty"`
	Orphans int `json:"orphans,omitempty"`
	// ShedDrops counts frames shed by per-flow admission.
	ShedDrops int `json:"shed_drops,omitempty"`
	// Trace is the byte-stable fault + outage log.
	Trace string `json:"trace,omitempty"`
}

// stormSession adapts stormRun to checkpoint.Session.
type stormSession struct {
	spec StormSpec
	run  *stormRun
}

func buildStormSession(raw json.RawMessage, opt checkpoint.Options) (checkpoint.Session, error) {
	var sp StormSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("faultstorm spec: %w", err)
	}
	if err := sp.validate(); err != nil {
		return nil, fmt.Errorf("faultstorm spec: %w", err)
	}
	var o *obs.Observer
	if sp.TelemetryMS > 0 {
		o = &obs.Observer{Period: msDur(sp.TelemetryMS), Out: opt.SnapshotOut}
	}
	cfg := FaultStormCellConfig{
		Seed:    sp.Seed,
		Rate:    sp.Rate,
		Run:     msDur(sp.RunMS),
		Quiesce: msDur(sp.QuiesceMS),
	}
	return &stormSession{spec: sp, run: buildFaultStorm(cfg, o)}, nil
}

func (s *stormSession) Kind() string              { return "faultstorm" }
func (s *stormSession) Config() interface{}       { return s.spec }
func (s *stormSession) Now() time.Duration        { return s.run.now() }
func (s *stormSession) End() time.Duration        { return s.run.end }
func (s *stormSession) AdvanceTo(t time.Duration) { s.run.advanceTo(t) }

func (s *stormSession) Sections() []checkpoint.Section {
	c := s.run.cell
	return []checkpoint.Section{
		checkpoint.HashSection("engine", c.w.eng.Pending(), c.w.eng.DigestState),
		checkpoint.HashSection("air", c.w.air.NodeCount(), c.w.air.DigestState),
		protocolSection(c.net),
		checkpoint.HashSection("injector", c.inj.EventCount(), c.inj.DigestState),
		checkpoint.HashSection("loss", 0, c.digestLoss),
		checkpoint.HashSection("outages", len(c.lines), c.digestOutages),
	}
}

// digestLoss renders the loss section: the Gilbert–Elliott overlay,
// or "ge nil" for a fault-free cell that runs none.
func (c *stormCell) digestLoss(d *checkpoint.Digest) {
	if c.ge == nil {
		d.Line("ge nil")
		return
	}
	c.ge.DigestState(d)
}

// digestOutages renders the outages section: every outage line so far.
func (c *stormCell) digestOutages(d *checkpoint.Digest) {
	for _, l := range c.lines {
		d.Line(l)
	}
}

func (s *stormSession) Result() interface{} {
	res := StormResult{AtNS: int64(s.run.now())}
	if s.run.now() < s.run.end {
		return res
	}
	cell := s.run.finish()
	res.Done = true
	res.Crashes = cell.crashes
	res.Stalls = cell.stalls
	res.GoodputMbps = cell.goodput / 1e6
	res.Outages = len(cell.outages)
	res.Orphans = cell.orphans
	res.ShedDrops = cell.shedDrops
	res.Trace = cell.trace
	return res
}
