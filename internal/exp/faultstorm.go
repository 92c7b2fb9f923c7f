package exp

import (
	"fmt"
	"strings"
	"time"

	"whitefi/internal/core"
	"whitefi/internal/fault"
	"whitefi/internal/incumbent"
	"whitefi/internal/mac"
	"whitefi/internal/obs"
	"whitefi/internal/trace"
)

// FaultStorm subjects a full WhiteFi BSS to a seeded storm of injected
// faults — AP crash/restart cycles, scanner stalls, overload bursts and
// a Gilbert–Elliott loss overlay — and measures what the hardened
// recovery protocol retains. The sweep variable is the fault rate: 0 is
// the fault-free baseline, 1 the default schedule, 2 twice as violent.
// Each cell reports the crash count, goodput (absolute and as a
// fraction of the fault-free baseline), the client-observed outage
// distribution (MTTR and p95), and permanent orphans — clients still
// disconnected after the storm ends and the network has had a full
// drain window to recover. Under the default schedule the orphan count
// must be zero: every crash ends in re-association.

// faultStormRates is the fault-rate sweep of the storm scenario.
var faultStormRates = []float64{0, 0.5, 1, 2}

const (
	// faultStormRun is the full virtual length of one storm cell.
	faultStormRun = 150 * time.Second
	// faultStormQuiesce is when injection stops; the remainder of the
	// run is the drain window in which every outstanding outage must
	// close. It is sized for the worst compounding case, not the mean:
	// a beacon timeout can open an episode seconds *after* quiesce
	// (the last crash's restart does not reset clients already starved),
	// and a client that rotated its rendezvous channel mid-storm needs
	// several rotateDwell periods plus a full scan to be found again —
	// ~40 s end to end, observed at rate 2.
	faultStormQuiesce = 95 * time.Second
	// faultStormClients is the number of clients in the stormed BSS.
	faultStormClients = 2
	// faultStormQueue tightens the AP egress queue so overload bursts
	// overflow it and exercise per-flow shedding.
	faultStormQueue = 64
)

// FaultStormPoint aggregates one fault-rate level of the storm.
type FaultStormPoint struct {
	Rate        float64
	Crashes     float64 // mean AP crashes per run
	Stalls      float64 // mean scanner stalls per run
	GoodputMbps float64
	Retained    float64 // goodput / fault-free goodput at rate 0
	Outages     float64 // mean completed client outage episodes
	MTTRMs      float64 // mean time-to-repair over closed outages
	P95Ms       float64 // 95th-percentile closed-outage duration
	ShedDrops   float64 // mean frames shed by per-flow admission
	Orphans     float64 // clients still disconnected at end (must be 0)
}

// faultStormCell is one hermetic run's raw outcome.
type faultStormCell struct {
	crashes   int
	stalls    int
	goodput   float64
	outages   []trace.OutageRecord
	shedDrops int
	orphans   int
	trace     string
}

// faultStormRunCell runs one seeded storm cell to its end. The
// returned trace is the byte-stable fault + outage log (see
// stormCell.writeTrace) — the artifact the parallel-determinism test
// pins byte-identical across worker counts.
func faultStormRunCell(seed int64, rate float64) faultStormCell {
	r := buildFaultStorm(FaultStormCellConfig{Seed: seed, Rate: rate}, nil)
	r.advanceTo(r.end)
	return r.finish()
}

// FaultStormCellConfig parameterizes one hermetic storm cell. The zero
// durations select the sweep's defaults (150 s run, quiesce at 95 s).
type FaultStormCellConfig struct {
	// Seed drives the world, injector schedule and loss overlay.
	Seed int64
	// Rate scales the injector's fault schedule; 0 is fault-free.
	Rate float64
	// Run is the cell's full virtual length; 0 selects 150 s.
	Run time.Duration
	// Quiesce is when injection stops; 0 selects 95 s. It is clamped
	// to Run.
	Quiesce time.Duration
}

func (c FaultStormCellConfig) withDefaults() FaultStormCellConfig {
	if c.Run == 0 {
		c.Run = faultStormRun
	}
	if c.Quiesce == 0 {
		c.Quiesce = faultStormQuiesce
	}
	if c.Quiesce > c.Run {
		c.Quiesce = c.Run
	}
	return c
}

// stormCell is one stormed BSS: the hardened network (per-flow
// shedding at a tightened AP queue, saturating downlink), its
// crash/restart injector, the Gilbert–Elliott loss overlay (nil at
// rate 0) and the client outage log in engine (closing) order. The
// lone FaultStorm cell and every tile of ShardedStorm are built by
// newStormCell.
type stormCell struct {
	w     *world
	seed  int64
	rate  float64
	net   *core.Network
	inj   *fault.Injector
	ge    *fault.GilbertElliott
	lines []string
}

// newStormCell builds a cell's network and injector on w without
// starting the storm. nc carries the id block and per-node random
// source: the zero Config for a lone cell (shedding is always on).
func newStormCell(w *world, seed int64, rate float64, nc core.Config) *stormCell {
	nc.Shedding = true
	sensors := sensorsFor(incumbent.SimulationBaseMap(), faultStormClients, 0, nil, nil)
	net := core.NewNetwork(w.eng, w.air, nc, sensors)
	net.AP.Node.SetQueueLimit(faultStormQueue)
	net.StartDownlink(1000)
	c := &stormCell{w: w, seed: seed, rate: rate, net: net}
	for _, cl := range net.Clients {
		cl.OnOutage = func(rec trace.OutageRecord) { c.lines = append(c.lines, rec.Line()) }
	}
	c.inj = fault.NewInjector(w.eng, fault.Config{Seed: seed, Rate: rate})
	c.inj.AddTarget(net.AP.ID, net.AP)
	return c
}

// start begins injection and, at a positive rate, the loss overlay. A
// detached overlay leaves the medium's DropFilter to the caller, which
// routes deliveries to it through FilterFrame.
func (c *stormCell) start(detached bool) {
	c.inj.Start()
	if c.rate > 0 {
		c.ge = fault.NewGilbertElliott(c.w.eng, c.w.air, c.seed*31+7)
		if detached {
			c.ge.StartDetached()
		} else {
			c.ge.Start()
		}
	}
}

// quiesce stops injection and the loss overlay; the rest of the run is
// the drain window.
func (c *stormCell) quiesce() {
	c.inj.Quiesce()
	if c.ge != nil {
		c.ge.Stop()
	}
}

// writeTrace appends the cell's byte-stable fault + outage log to sb —
// every injector event in engine order, then every client outage
// episode in engine (closing) order, then any episodes still open at
// the end — and returns how many were still open.
func (c *stormCell) writeTrace(sb *strings.Builder) (open int) {
	for _, e := range c.inj.Events {
		sb.WriteString(e.Line())
		sb.WriteByte('\n')
	}
	for _, l := range c.lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	for _, cl := range c.net.Clients {
		if rec, ok := cl.OpenOutage(); ok {
			open++
			sb.WriteString(rec.Line())
			sb.WriteByte('\n')
		}
	}
	return open
}

// stormRun is one in-flight FaultStorm cell: the cell on its own world
// and everything finish needs. The quiesce stage is an engine event, so
// the run can be advanced in arbitrary steps.
type stormRun struct {
	cfg  FaultStormCellConfig
	cell *stormCell
	o    *obs.Observer
	end  time.Duration

	finished bool
	result   faultStormCell
}

// buildFaultStorm constructs one storm cell at virtual time zero with
// the quiesce stage pre-scheduled. o, when non-nil, is wired to the
// engine, medium, MAC nodes, clients, AP, AP scanner and injector and
// started before the storm.
func buildFaultStorm(cfg FaultStormCellConfig, o *obs.Observer) *stormRun {
	cfg = cfg.withDefaults()
	w := newWorld(cfg.Seed)
	c := newStormCell(w, cfg.Seed, cfg.Rate, core.Config{})
	if o != nil {
		o.Attach(w.eng)
		obs.RegisterEngine(o.Reg, w.eng)
		obs.RegisterAir(o.Reg, w.air)
		nodes := []*mac.Node{c.net.AP.Node}
		for _, cl := range c.net.Clients {
			nodes = append(nodes, cl.Node)
		}
		obs.RegisterNodes(o.Reg, "mac", func() []*mac.Node { return nodes })
		obs.RegisterClients(o.Reg, c.net.Clients)
		obs.RegisterAP(o.Reg, c.net.AP)
		obs.RegisterScanner(o.Reg, "radio.ap", c.net.AP.Scanner)
		obs.RegisterInjector(o.Reg, c.inj)
		o.Start()
	}
	c.start(false)

	// Injection stops at quiesce; the remainder is the drain window.
	// runAfterTies lands the stop behind every event queued at the
	// quiesce instant, exactly where the old host loop placed it.
	runAfterTies(w.eng, cfg.Quiesce, c.quiesce)
	return &stormRun{cfg: cfg, cell: c, o: o, end: cfg.Run}
}

// advanceTo runs the cell to virtual time t, clamped to the run end.
func (r *stormRun) advanceTo(t time.Duration) {
	if t > r.end {
		t = r.end
	}
	r.cell.w.eng.RunUntil(t)
}

// now returns the cell's current virtual time.
func (r *stormRun) now() time.Duration { return r.cell.w.eng.Now() }

// finish summarizes the cell and tears the network down. Memoized:
// only the first call mutates (observer flush, net.Stop).
func (r *stormRun) finish() faultStormCell {
	if r.finished {
		return r.result
	}
	r.finished = true
	net := r.cell.net

	cell := faultStormCell{
		crashes: net.AP.Crashes,
		stalls:  net.AP.Stalls,
		goodput: float64(net.GoodputBytes()) * 8 / r.cfg.Run.Seconds(),
	}
	var sb strings.Builder
	cell.orphans = r.cell.writeTrace(&sb)
	for _, c := range net.Clients {
		cell.outages = append(cell.outages, c.Outages...)
	}
	cell.shedDrops = net.AP.Node.Stats.ShedDropped
	cell.trace = sb.String()
	if r.o != nil {
		r.o.Stop()
		r.o.Flush()
	}
	net.Stop()
	r.result = cell
	return cell
}

// FaultStorm sweeps the fault rate over reps seeds per level on the
// parallel harness. It returns the aggregated points and the combined
// per-cell trace (cells concatenated in sweep order) — identical bytes
// at any worker count.
func FaultStorm(reps int) ([]FaultStormPoint, string) {
	cells := make([]faultStormCell, len(faultStormRates)*reps)
	runIndexed(len(cells), func(i int) {
		rate := faultStormRates[i/reps]
		cells[i] = faultStormRunCell(int64(8191+53*(i%reps)), rate)
	})
	out := make([]FaultStormPoint, len(faultStormRates))
	var sb strings.Builder
	for ri, rate := range faultStormRates {
		agg := FaultStormPoint{Rate: rate}
		var recs []trace.OutageRecord
		for r := 0; r < reps; r++ {
			c := cells[ri*reps+r]
			agg.Crashes += float64(c.crashes)
			agg.Stalls += float64(c.stalls)
			agg.GoodputMbps += c.goodput / 1e6
			agg.Outages += float64(len(c.outages))
			agg.ShedDrops += float64(c.shedDrops)
			agg.Orphans += float64(c.orphans)
			recs = append(recs, c.outages...)
			sb.WriteString(fmt.Sprintf("== cell rate=%.1f rep=%d ==\n", rate, r))
			sb.WriteString(c.trace)
		}
		n := float64(reps)
		agg.Crashes /= n
		agg.Stalls /= n
		agg.GoodputMbps /= n
		agg.Outages /= n
		agg.ShedDrops /= n
		agg.Orphans /= n
		agg.MTTRMs = trace.MTTRMs(recs)
		agg.P95Ms = trace.OutageP95Ms(recs)
		out[ri] = agg
	}
	if out[0].GoodputMbps > 0 {
		for i := range out {
			out[i].Retained = out[i].GoodputMbps / out[0].GoodputMbps
		}
	}
	return out, sb.String()
}

// FaultStormTable renders the fault-rate sweep.
func FaultStormTable(reps int) *trace.Table {
	t := &trace.Table{
		Title:   "FaultStorm: injected AP crashes, scanner stalls, overload and burst loss vs recovery",
		Headers: []string{"rate", "crashes", "stalls", "goodput(Mbps)", "retained", "outages", "mttr(ms)", "p95(ms)", "shed", "orphans"},
	}
	pts, _ := FaultStorm(reps)
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%.1f", p.Rate),
			fmt.Sprintf("%.1f", p.Crashes),
			fmt.Sprintf("%.1f", p.Stalls),
			fmt.Sprintf("%.2f", p.GoodputMbps),
			fmt.Sprintf("%.3f", p.Retained),
			fmt.Sprintf("%.1f", p.Outages),
			fmt.Sprintf("%.0f", p.MTTRMs),
			fmt.Sprintf("%.0f", p.P95Ms),
			fmt.Sprintf("%.1f", p.ShedDrops),
			fmt.Sprintf("%.1f", p.Orphans))
	}
	return t
}
