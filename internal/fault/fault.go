package fault

import (
	"math/rand"
	"strconv"
	"time"

	"whitefi/internal/dynamics"
	"whitefi/internal/sim"
)

// Target is the fault surface an Injector drives. core.AP implements it;
// tests may substitute fakes.
type Target interface {
	// Crash kills the target abruptly; Restart reboots it.
	Crash()
	Restart()
	// StallScanner silently disables the target's chirp scanner for d.
	StallScanner(d time.Duration)
	// InjectLoad offers a burst of n data frames of the given payload
	// size; returns how many were accepted.
	InjectLoad(n, bytes int) int
}

// Event is one fired fault, recorded in engine order.
type Event struct {
	At     time.Duration
	Kind   string // "crash", "restart", "stall", "overload"
	Target int
	Dur    time.Duration // downtime (crash) or stall length; 0 otherwise
}

// Line renders the event as one stable trace line.
func (e Event) Line() string {
	b := strconv.AppendFloat(append(make([]byte, 0, 48), "t="...), e.At.Seconds(), 'f', 3, 64)
	b = append(append(b, " kind="...), e.Kind...)
	b = strconv.AppendInt(append(b, " target="...), int64(e.Target), 10)
	return string(strconv.AppendFloat(append(b, " dur="...), e.Dur.Seconds(), 'f', 3, 64))
}

// Fault-schedule means at Rate 1. Each is the mean of an exponential
// holding time, and Config.Rate divides it.
const (
	DefaultCrashEvery    = 30 * time.Second // between crashes, per target
	DefaultCrashDowntime = 5 * time.Second  // downtime before restart
	DefaultStallEvery    = 20 * time.Second // between scanner stalls
	DefaultStallFor      = 4 * time.Second  // stall length
	DefaultOverloadEvery = 15 * time.Second // between load bursts
)

// Every overload burst offers overloadFrames data frames of
// overloadBytes payload bytes each.
const (
	overloadFrames = 256
	overloadBytes  = 1000
)

// Config parameterises an Injector. Rate scales all event rates of the
// fixed schedule (1 = the Default* means, 2 = twice as many faults, 0
// or negative = the injector never fires — the fault-free baseline of
// a rate sweep).
type Config struct {
	Seed int64
	Rate float64
}

// entry is one registered target with its per-kind RNG streams.
type entry struct {
	id    int
	t     Target
	down  bool
	crash *rand.Rand
	stall *rand.Rand
	load  *rand.Rand
}

// Injector schedules seeded fault processes against registered targets.
// Register targets with AddTarget, then Start. Events holds everything
// fired, in engine order.
type Injector struct {
	Cfg Config
	// Events records every fired fault in engine order — the
	// determinism-pinned fault trace.
	Events []Event

	eng     *sim.Engine
	targets []*entry
	running bool
	gen     int
}

// NewInjector creates a stopped injector.
func NewInjector(eng *sim.Engine, cfg Config) *Injector {
	return &Injector{Cfg: cfg, eng: eng}
}

// AddTarget registers a target under a stable id (the AP's node id).
// Each (target, kind) stream is seeded from (Config.Seed, id, kind), so
// adding or removing other targets never perturbs this one's schedule.
func (in *Injector) AddTarget(id int, t Target) {
	mix := func(kind int64) *rand.Rand {
		return rand.New(rand.NewSource(in.Cfg.Seed*7907 + int64(id)*613 + kind*131071))
	}
	in.targets = append(in.targets, &entry{
		id: id, t: t,
		crash: mix(1), stall: mix(2), load: mix(3),
	})
}

// Start begins all fault processes. Rate <= 0 leaves the injector idle.
func (in *Injector) Start() {
	if in.running || in.Cfg.Rate <= 0 {
		return
	}
	in.running = true
	gen := in.gen
	for _, e := range in.targets {
		e := e
		in.after(gen, in.hold(e.crash, DefaultCrashEvery), func() { in.crashNow(gen, e) })
		in.after(gen, in.hold(e.stall, DefaultStallEvery), func() { in.stallNow(gen, e) })
		in.after(gen, in.hold(e.load, DefaultOverloadEvery), func() { in.overloadNow(gen, e) })
	}
}

// Stop halts all fault processes; crashed targets stay crashed.
func (in *Injector) Stop() {
	in.running = false
	in.gen++
}

// Quiesce stops injecting and immediately restarts every target the
// injector left crashed, so a run can drain to a fault-free steady
// state (the no-permanent-orphans acceptance window).
func (in *Injector) Quiesce() {
	in.Stop()
	for _, e := range in.targets {
		if e.down {
			e.t.Restart()
			e.down = false
			in.record("restart", e.id, 0)
		}
	}
}

// hold draws an exponential holding time with the given mean divided
// by Rate.
func (in *Injector) hold(rng *rand.Rand, mean time.Duration) time.Duration {
	return dynamics.ExpHolding(rng, time.Duration(float64(mean)/in.Cfg.Rate))
}

// after schedules fn gated on the injector generation.
func (in *Injector) after(gen int, d time.Duration, fn func()) {
	in.eng.After(d, func() {
		if in.running && in.gen == gen {
			fn()
		}
	})
}

func (in *Injector) record(kind string, target int, dur time.Duration) {
	in.Events = append(in.Events, Event{At: in.eng.Now(), Kind: kind, Target: target, Dur: dur})
}

func (in *Injector) crashNow(gen int, e *entry) {
	down := in.hold(e.crash, DefaultCrashDowntime)
	e.t.Crash()
	e.down = true
	in.record("crash", e.id, down)
	in.after(gen, down, func() {
		e.t.Restart()
		e.down = false
		in.record("restart", e.id, 0)
		// The next inter-crash interval starts after the restart, so a
		// target is never re-crashed while still down.
		in.after(gen, in.hold(e.crash, DefaultCrashEvery), func() { in.crashNow(gen, e) })
	})
}

func (in *Injector) stallNow(gen int, e *entry) {
	d := in.hold(e.stall, DefaultStallFor)
	e.t.StallScanner(d)
	in.record("stall", e.id, d)
	in.after(gen, in.hold(e.stall, DefaultStallEvery), func() { in.stallNow(gen, e) })
}

func (in *Injector) overloadNow(gen int, e *entry) {
	e.t.InjectLoad(overloadFrames, overloadBytes)
	in.record("overload", e.id, 0)
	in.after(gen, in.hold(e.load, DefaultOverloadEvery), func() { in.overloadNow(gen, e) })
}
