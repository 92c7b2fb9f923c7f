package obs

import (
	"strconv"
	"time"

	"whitefi/internal/core"
	"whitefi/internal/fault"
	"whitefi/internal/mac"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
	"whitefi/internal/traffic"
)

// This file holds the standard registrations: one helper per
// subsystem, all pull-style (CounterFunc/GaugeFunc sampling state the
// subsystem already keeps), so instrumenting a scenario costs nothing
// on the hot path. All metric names live here, in one place.

// RegisterEngine registers the event engine's work and pool metrics:
// engine.dispatched, engine.pending, engine.free_events.
func RegisterEngine(r *Registry, eng *sim.Engine) {
	r.CounterFunc("engine.dispatched", func() int64 { return int64(eng.Dispatched()) })
	r.GaugeFunc("engine.pending", func() float64 { return float64(eng.Pending()) })
	r.GaugeFunc("engine.free_events", func() float64 { return float64(eng.FreeEvents()) })
}

// RegisterAir registers the medium's delivery counters (RegisterAirs
// over the one medium) and pool/arena occupancy gauges under the air.*
// prefix.
func RegisterAir(r *Registry, air *mac.Air) {
	RegisterAirs(r, []*mac.Air{air})
	r.GaugeFunc("air.arena_live", func() float64 { return float64(air.ArenaLive()) })
	r.GaugeFunc("air.arena_cap", func() float64 { return float64(air.ArenaCap()) })
	r.GaugeFunc("air.active", func() float64 { return float64(air.ActiveCount()) })
	r.GaugeFunc("air.log_size", func() float64 { return float64(air.LogSize()) })
}

// RegisterAirs registers the medium delivery counters summed over a
// set of airs — the sharded-run counterpart of RegisterAir, under the
// same air.* counter names, so a snapshot stream reads identically
// whether the world runs on one medium or one per shard. Only the
// physical outcome counters are summed; the storage gauges RegisterAir
// also exposes (arena occupancy, log size) are deliberately omitted,
// because they describe per-medium layout and prune timing, which
// legitimately vary with the shard count even when the physics is
// byte-identical. Reads must happen at a barrier (the observer attached
// to the sharded coordinator's global engine guarantees this).
func RegisterAirs(r *Registry, airs []*mac.Air) {
	sum := func(f func(*mac.AirCounters) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, a := range airs {
				t += f(&a.Counters)
			}
			return t
		}
	}
	r.CounterFunc("air.launches", sum(func(c *mac.AirCounters) int64 { return c.Launches }))
	r.CounterFunc("air.delivered", sum(func(c *mac.AirCounters) int64 { return c.Delivered }))
	r.CounterFunc("air.collisions", sum(func(c *mac.AirCounters) int64 { return c.Collisions }))
	r.CounterFunc("air.below_floor", sum(func(c *mac.AirCounters) int64 { return c.BelowFloor }))
	r.CounterFunc("air.half_duplex", sum(func(c *mac.AirCounters) int64 { return c.HalfDuplex }))
	r.CounterFunc("air.filter_drops", sum(func(c *mac.AirCounters) int64 { return c.FilterDrops }))
}

// RegisterAirtime registers one air.busy.uhfN gauge per given center:
// the medium's busy fraction over the trailing window at snapshot
// time.
func RegisterAirtime(r *Registry, air *mac.Air, window time.Duration, centers []spectrum.UHF) {
	for _, u := range centers {
		u := u
		r.GaugeFunc("air.busy."+u.String(), func() float64 {
			now := air.Eng.Now()
			from := now - window
			if from < 0 {
				from = 0
			}
			if from == now {
				return 0
			}
			return air.BusyFractionAt(mac.IdealObserver, u, from, now, nil)
		})
	}
}

// RegisterNodes registers aggregate MAC counters and the total DCF
// queue depth over the node set, under the given prefix (e.g. "mac").
// nodes is called at every snapshot, so the sums cover nodes added
// after registration (a forked run's added BSSs).
func RegisterNodes(r *Registry, prefix string, nodes func() []*mac.Node) {
	sum := func(f func(*mac.Node) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, n := range nodes() {
				t += f(n)
			}
			return t
		}
	}
	r.CounterFunc(prefix+".tx_data", sum(func(n *mac.Node) int64 { return int64(n.Stats.TxData) }))
	r.CounterFunc(prefix+".tx_ok", sum(func(n *mac.Node) int64 { return int64(n.Stats.TxOK) }))
	r.CounterFunc(prefix+".tx_dropped", sum(func(n *mac.Node) int64 { return int64(n.Stats.TxDropped) }))
	r.CounterFunc(prefix+".rx_data", sum(func(n *mac.Node) int64 { return int64(n.Stats.RxData) }))
	r.CounterFunc(prefix+".ack_timeouts", sum(func(n *mac.Node) int64 { return int64(n.Stats.AckTimeouts) }))
	r.CounterFunc(prefix+".queue_dropped", sum(func(n *mac.Node) int64 { return int64(n.Stats.QueueDropped) }))
	r.CounterFunc(prefix+".shed_dropped", sum(func(n *mac.Node) int64 { return int64(n.Stats.ShedDropped) }))
	r.GaugeFunc(prefix+".queue_depth", func() float64 {
		var t int
		for _, n := range nodes() {
			t += n.QueueLen()
		}
		return float64(t)
	})
}

// RegisterFlows registers per-flow traffic counters
// (traffic.flowN.generated/delivered/queue_dropped) plus the
// aggregate totals of RegisterFlowTotals. Meant for runs with a
// handful of flows; city-scale runs register only the totals.
func RegisterFlows(r *Registry, flows []*traffic.Flow) {
	for _, f := range flows {
		f := f
		p := "traffic.flow" + strconv.Itoa(f.ID)
		r.CounterFunc(p+".generated", func() int64 { return int64(f.Tel.Generated) })
		r.CounterFunc(p+".delivered", func() int64 { return int64(f.Tel.Delivered) })
		r.CounterFunc(p+".queue_dropped", func() int64 { return int64(f.Tel.QueueDropped) })
	}
	RegisterFlowTotals(r, func() []*traffic.Flow { return flows })
}

// RegisterFlowTotals registers aggregate traffic counters
// (traffic.generated/delivered/queue_dropped) over the flow set. flows
// is called at every snapshot, so the totals cover flows added after
// registration.
func RegisterFlowTotals(r *Registry, flows func() []*traffic.Flow) {
	r.CounterFunc("traffic.generated", func() int64 {
		var t int64
		for _, f := range flows() {
			t += int64(f.Tel.Generated)
		}
		return t
	})
	r.CounterFunc("traffic.delivered", func() int64 {
		var t int64
		for _, f := range flows() {
			t += int64(f.Tel.Delivered)
		}
		return t
	})
	r.CounterFunc("traffic.queue_dropped", func() int64 {
		var t int64
		for _, f := range flows() {
			t += int64(f.Tel.QueueDropped) + int64(f.Tel.RequestDropped)
		}
		return t
	})
}

// RegisterClients registers aggregate client-side recovery counters:
// disconnects, reconnections, rendezvous attempts, chirps sent, and
// the number of outage episodes currently open.
func RegisterClients(r *Registry, clients []*core.Client) {
	sum := func(f func(*core.Client) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, c := range clients {
				t += f(c)
			}
			return t
		}
	}
	r.CounterFunc("core.disconnects", sum(func(c *core.Client) int64 { return int64(c.Disconnects) }))
	r.CounterFunc("core.reconnections", sum(func(c *core.Client) int64 { return int64(c.Reconnections) }))
	r.CounterFunc("core.rendezvous_attempts", sum(func(c *core.Client) int64 { return int64(c.RendezvousAttempts) }))
	r.CounterFunc("core.chirps_sent", sum(func(c *core.Client) int64 { return int64(c.ChirpsSent()) }))
	r.GaugeFunc("core.open_outages", func() float64 {
		var t int
		for _, c := range clients {
			if _, open := c.OpenOutage(); open {
				t++
			}
		}
		return float64(t)
	})
}

// RegisterAP registers the AP's lifecycle counters: channel switches,
// completed recoveries, injected crashes and stalls.
func RegisterAP(r *Registry, ap *core.AP) {
	r.CounterFunc("core.ap.switches", func() int64 { return int64(len(ap.Switches)) })
	r.CounterFunc("core.ap.reconnections", func() int64 { return int64(ap.Reconnections) })
	r.CounterFunc("core.ap.crashes", func() int64 { return int64(ap.Crashes) })
	r.CounterFunc("core.ap.stalls", func() int64 { return int64(ap.Stalls) })
}

// RegisterScanner registers the scanner's cumulative work counters
// under the given prefix (e.g. "radio.ap").
func RegisterScanner(r *Registry, prefix string, s *radio.Scanner) {
	st := &s.Stats
	r.CounterFunc(prefix+".scans", func() int64 { return st.Scans })
	r.CounterFunc(prefix+".pulses", func() int64 { return st.Pulses })
	r.CounterFunc(prefix+".detections", func() int64 { return st.Detections })
	r.CounterFunc(prefix+".chirp_decodes", func() int64 { return st.ChirpDecodes })
	r.CounterFunc(prefix+".calibrations", func() int64 { return st.Calibrations })
}

// RegisterInjector registers the fault layer's injection counter.
func RegisterInjector(r *Registry, inj *fault.Injector) {
	r.CounterFunc("fault.injections", func() int64 { return int64(len(inj.Events)) })
}
