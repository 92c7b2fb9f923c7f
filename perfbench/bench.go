package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/exp"
	"whitefi/internal/server"
)

// setupBuilds is how many times a batch rep builds its session; the
// last build is the one advanced, and setup_s is the median of all.
const setupBuilds = 3

// telemetryMS is the snapshot period of traced runs (and of the served
// city, whose stream is part of the serve workload).
const telemetryMS = 250

// bench holds one run's measurements.
type bench struct {
	w      *workload
	seed   int64
	traced bool // telemetry on and spans kept: the counts pass of a traced run
	rusage bool // read process CPU around each slice (profiled pass)
	quiet  bool // print no output hashes
	tr     *tracer
	led    ledger
	reps   int // layouts run, counting repeats

	// End-to-end samples.
	setups      []float64   // s
	waits       []float64   // ms: slices (batch) or status polls (serve)
	waitSets    [][]float64 // serve: each set's status polls
	checkpoints []float64   // ms
	restores    []float64   // s
	heaps       []float64   // MiB
	served      []float64   // s: first submit to last run done (serve)
	virtual     float64     // virtual seconds simulated
	host        float64     // host seconds spent simulating them: in AdvanceTo, or serving

	// Traced-run accumulators.
	count    map[string]float64 // snapshot counters summed over sessions
	peak     map[string]float64 // snapshot gauge peaks
	cpu      cpuSplit
	profiles [][]byte
	profiled float64 // s: host time of the profiled pass (telemetry off)
	workCPU  float64 // s: process CPU while simulating (profiled pass)
	workCap  float64 // s: wall time while simulating × workers (profiled pass)
	rt       []float64

	refs map[int]*serveRef // serve references per layout
}

func newBench(w *workload, seed int64, traced bool) *bench {
	b := &bench{w: w, seed: seed, traced: traced,
		count: map[string]float64{}, peak: map[string]float64{},
		rt: make([]float64, len(runtimeSamples)), refs: map[int]*serveRef{}}
	if traced {
		b.tr = &tracer{t0: time.Now()}
	}
	return b
}

// telemetry is the telemetry period batch specs carry: on only in
// traced runs, so timed runs measure the bare simulator.
func (b *bench) telemetry() int {
	if b.traced {
		return telemetryMS
	}
	return 0
}

// run repeats whole cycles of the workload's layouts: at least one,
// and another only while it is expected, at the last cycle's pace, to
// end within budget. Every timed run at a seed therefore does the same
// work, each layout weighing the same, however fast the host is.
//
// A traced run makes two passes over each layout: a profiled pass of
// the program as the timed runs see it, then a telemetry pass. That
// doubles a layout's cost, so a traced run also stops between layouts,
// before one that is expected, at the mean pace so far, to end after
// budget; it always runs at least one.
func (b *bench) run(budget time.Duration) {
	start := time.Now()
	for {
		cycle := time.Now()
		for l := 0; l < b.w.layouts; l++ {
			if b.traced {
				if spent := time.Since(start); b.reps > 0 && spent+spent/time.Duration(b.reps) > budget {
					return
				}
				b.profiledPass(l)
			}
			b.w.rep(b, l)
			b.reps++
		}
		if time.Since(start)+time.Since(cycle) > budget {
			return
		}
	}
}

// cycles is the number of cycles run, a fraction when a traced run
// stopped inside one.
func (b *bench) cycles() float64 { return float64(b.reps) / float64(b.w.layouts) }

// profiledPass runs layout l as a timed run does, with telemetry and
// spans off, under the CPU profiler, with runtime counters and process
// CPU read around it. The layer split, runtime.* and sim.worker_*
// therefore describe the program the timed runs measure, and its host
// time is the base of bench.trace_overhead. Its failures count; its
// other samples are dropped.
func (b *bench) profiledPass(l int) {
	tmp := newBench(b.w, b.seed, false)
	tmp.quiet, tmp.refs, tmp.rusage = true, b.refs, true
	before := readRuntime()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); !b.led.op(failError, err) {
		return
	}
	b.w.rep(tmp, l)
	pprof.StopCPUProfile()
	after := readRuntime()
	for i := range b.rt {
		b.rt[i] += after[i] - before[i]
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if b.led.op(failError, err) {
		b.cpu.add(samples)
	}
	b.profiles = append(b.profiles, prof.Bytes())
	b.profiled += tmp.host
	b.workCPU += tmp.workCPU
	b.workCap += tmp.workCap
	b.led.merge(tmp.led)
}

// batchSpec is one batch session to run: its kind and spec JSON.
type batchSpec struct {
	kind    string
	spec    []byte
	workers int // threads advancing it: shard workers, or 1 for serial engines
}

// subSeed derives the spec seed of layout l from the workload seed.
func subSeed(seed int64, l int) int64 { return seed*16 + int64(l) }

// mustJSON marshals a spec the benchmark itself defines.
func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Session length of the city workloads: the densecity default (2 s
// settle + 8 s measure). The medium log keeps every launch for its 10 s
// retention, so only a full-length session reaches the log size, and so
// the checkpoint and slice cost, of the runs users make.
const (
	citySettleMS  = 2000
	cityMeasureMS = 8000
)

// citySpec is the city workload: one ~100-AP densecity session.
func citySpec(seed int64, l, telemetry int) batchSpec {
	return batchSpec{kind: "densecity", workers: 1, spec: mustJSON(exp.CitySpec{
		APs: 100, Seed: subSeed(seed, l), SettleMS: citySettleMS, MeasureMS: cityMeasureMS, TelemetryMS: telemetry})}
}

// stormSpec is the storm workload: one faultstorm cell at rate 1.
func stormSpec(seed int64, l, telemetry int) batchSpec {
	return batchSpec{kind: "faultstorm", workers: 1, spec: mustJSON(exp.StormSpec{
		Seed: subSeed(seed, l), Rate: 1, TelemetryMS: telemetry})}
}

// tiledSpec is the tiled-mobile workload: ~100 APs over 4 guard-spaced
// tiles on 2 shards with moving clients.
func tiledSpec(seed int64, l, telemetry int) batchSpec {
	w := maxProcs()
	return batchSpec{kind: "tiledcity", workers: w, spec: mustJSON(exp.CitySpec{
		APs: 100, Seed: subSeed(seed, l), SettleMS: citySettleMS, MeasureMS: cityMeasureMS,
		Tiles: 4, Shards: 2, Workers: w, Mobility: true, TelemetryMS: telemetry})}
}

// shortHash is the first 16 hex digits of the SHA-256 of b.
func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// sectionsHash digests a session's section list.
func sectionsHash(secs []checkpoint.Section) string {
	var sb strings.Builder
	for _, s := range secs {
		fmt.Fprintf(&sb, "%s %d %s\n", s.Name, s.Items, s.Digest)
	}
	return shortHash([]byte(sb.String()))
}

// batchRep runs one batch session: build (setupBuilds times), advance
// to the end in server.Slice steps with a checkpoint at the last slice
// boundary at or before the virtual midpoint, read the live heap at the
// end instant, take the result, restore the mid-run checkpoint, and
// checkpoint the restored session again. A forced collection precedes
// the builds, the advance and the restore, so a collection owed by the
// work before does not land in their windows and each window starts
// from the same heap state.
func (b *bench) batchRep(sp batchSpec, layout int) {
	run := fmt.Sprintf("%s/%d", b.w.name, layout)
	repID, repStart := b.tr.newID(), time.Now()
	defer func() { b.tr.add(repID, 0, run, "rep", repStart, time.Now()) }()

	var stream bytes.Buffer
	opt := checkpoint.Options{}
	if b.traced {
		opt.SnapshotOut = &stream
	}
	var s checkpoint.Session
	runtime.GC()
	for k := 0; k < setupBuilds; k++ {
		s = nil
		t0 := time.Now()
		sess, err := checkpoint.Build(sp.kind, sp.spec, opt)
		t1 := time.Now()
		if !b.led.op(failError, err) {
			return
		}
		b.setups = append(b.setups, t1.Sub(t0).Seconds())
		b.tr.add(0, repID, run, "exp.build", t0, t1)
		s = sess
	}

	runtime.GC()
	end := s.End()
	mid := end / 2 / server.Slice * server.Slice
	var cp []byte
	var adv, cpu time.Duration
	for now := s.Now(); now < end; now = s.Now() {
		next := now + server.Slice
		if next > end {
			next = end
		}
		var c0 time.Duration
		if b.rusage {
			c0 = procCPU()
		}
		t0 := time.Now()
		s.AdvanceTo(next)
		t1 := time.Now()
		if b.rusage {
			cpu += procCPU() - c0
		}
		adv += t1.Sub(t0)
		b.waits = append(b.waits, float64(t1.Sub(t0))/1e6)
		b.tr.add(0, repID, run, "exp.advance", t0, t1)
		if next == mid {
			cp = b.capture(s, repID, run)
			b.count["checkpoint.bytes"] += float64(len(cp))
		}
	}
	b.virtual += end.Seconds()
	b.host += adv.Seconds()
	if b.rusage {
		b.workCPU += cpu.Seconds()
		b.workCap += adv.Seconds() * float64(sp.workers)
	}

	b.heaps = append(b.heaps, liveHeapMiB())
	secs := sectionsHash(s.Sections())
	t0 := time.Now()
	res := s.Result()
	t1 := time.Now()
	b.tr.add(0, repID, run, "exp.result", t0, t1)
	raw, err := json.Marshal(res)
	if b.led.op(failError, err) {
		b.checkPin(pinKey{b.w.name, layout, ""}, shortHash(raw), secs)
	}
	s = nil
	if b.traced {
		b.foldStream(stream.Bytes())
	}
	if cp == nil {
		return
	}
	if r := b.restore(cp, repID, run); r != nil {
		if doc := b.capture(r, repID, run); doc != nil {
			b.led.check(bytes.Equal(doc, cp), run+": checkpoint of the restored session differs from the original")
		}
	}
}

// capturesPerCheckpoint is how many times a batch rep checkpoints a
// session standing at the midpoint: the original session, and again
// the session restored from that checkpoint. The session does not move
// between them, so every document must be the same, which is checked.
const capturesPerCheckpoint = 3

// capture checkpoints s and encodes it capturesPerCheckpoint times,
// timing both, and returns the document. Each timed window starts
// after a forced collection, so a collection owed by the preceding
// slices does not land inside it. The instant's checkpoint_ms sample
// is the fastest of its repeats: the work is the same each time, so
// the slower ones measure the shared host, not the program.
func (b *bench) capture(s checkpoint.Session, parent int, run string) []byte {
	var doc []byte
	best := math.Inf(1)
	for k := 0; k < capturesPerCheckpoint; k++ {
		runtime.GC()
		t0 := time.Now()
		cp, err := checkpoint.Capture(s)
		t1 := time.Now()
		if !b.led.op(failError, err) {
			return nil
		}
		var buf bytes.Buffer
		err = cp.Encode(&buf)
		t2 := time.Now()
		if !b.led.op(failError, err) {
			return nil
		}
		best = math.Min(best, float64(t2.Sub(t0))/1e6)
		b.tr.add(0, parent, run, "checkpoint.capture", t0, t1)
		b.tr.add(0, parent, run, "checkpoint.encode", t1, t2)
		if doc != nil {
			b.led.check(bytes.Equal(buf.Bytes(), doc), run+": two checkpoints of the same instant differ")
		}
		doc = buf.Bytes()
	}
	b.checkpoints = append(b.checkpoints, best)
	return doc
}

// restore decodes and restores a checkpoint, which rebuilds the
// session, replays it to the capture instant and verifies every
// section digest, and returns the restored session (nil on failure).
// The checkpoint was captured from a session this rep built from the
// same spec at an instant inside the run, so a Restore error means the
// replay did not reproduce the captured state.
func (b *bench) restore(cp []byte, parent int, run string) checkpoint.Session {
	runtime.GC()
	t0 := time.Now()
	c, err := checkpoint.Decode(bytes.NewReader(cp))
	t1 := time.Now()
	if !b.led.op(failError, err) {
		return nil
	}
	s, err := checkpoint.Restore(c, checkpoint.Options{})
	t2 := time.Now()
	if !b.led.op(failVerify, err) {
		return nil
	}
	b.restores = append(b.restores, t2.Sub(t0).Seconds())
	b.tr.add(0, parent, run, "checkpoint.decode", t0, t1)
	b.tr.add(0, parent, run, "checkpoint.restore", t1, t2)
	if !b.led.check(s.Now() == c.At, fmt.Sprintf("%s: restored to %v, checkpoint at %v", run, s.Now(), c.At)) {
		return nil
	}
	return s
}

// checkPin compares a session's output hashes against the pins of the
// default seed and prints them, so runs on other seeds can be compared
// between commits. A traced session carries a telemetry observer, whose
// ticker is engine state, so only its result is held to the pin: an
// observer must not change results.
func (b *bench) checkPin(key pinKey, result, sections string) {
	status := "unpinned"
	if b.seed == defaultSeed {
		status = "ok"
		want, ok := pins[key]
		match := ok && want.result == result && (want.sections == sections || b.traced)
		if !b.led.check(match, fmt.Sprintf("%+v: result %s sections %s, pinned %+v", key, result, sections, want)) {
			status = "MISMATCH"
		}
	}
	if b.reps < b.w.layouts && !b.quiet {
		name := fmt.Sprintf("%s/%d", key.workload, key.layout)
		if key.run != "" {
			name += "/" + key.run
		}
		fmt.Printf("output %s seed=%d result=%s sections=%s pin=%s\n", name, b.seed, result, sections, status)
	}
}

// foldStream adds one session's snapshot stream to the per-layer
// counts. Tile-prefixed names ("tile03.mac.tx_data") fold into their
// layer name.
func (b *bench) foldStream(raw []byte) {
	st, err := readStream(raw)
	if !b.led.op(failError, err) {
		return
	}
	for k, v := range st.counters {
		b.count[untile(k)] += float64(v)
	}
	for k, v := range st.hists {
		b.count[untile(k)] += float64(v)
	}
	for k, v := range st.peaks {
		if k := untile(k); v > b.peak[k] {
			b.peak[k] = v
		}
	}
	b.count["obs.snapshot_bytes"] += float64(st.bytes)
}

// untile strips a "tileNN." prefix.
func untile(name string) string {
	if strings.HasPrefix(name, "tile") {
		if i := strings.IndexByte(name, '.'); i > 0 {
			return name[i+1:]
		}
	}
	return name
}

// writeTrace stores the spans and CPU profiles of a traced run.
func (b *bench) writeTrace(dir string) error {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	if err := b.tr.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	for i, p := range b.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", base, i), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// report prints the human-readable summary lines.
func (b *bench) report(w io.Writer, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "workload %s seed=%d cycles=%.4g layouts=%d gomaxprocs=%d traced=%t\n",
		b.w.name, b.seed, b.cycles(), b.w.layouts, maxProcs(), b.traced)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	if !b.traced {
		if len(b.waitSets) == 0 {
			fmt.Fprintf(w, "  control_tail_ms is the %s\n", tailOf(b.waits))
		}
		for i, ws := range b.waitSets {
			fmt.Fprintf(w, "  set %d control tail is the %s; its city submit took %.4g ms\n", i, tailOf(ws), b.setups[i]*1e3)
		}
		if len(b.served) > 0 {
			fmt.Fprintf(w, "  %-28s %14.6g s (median of %d)\n", "result_s", median(b.served), len(b.served))
		}
	}
	fmt.Fprintf(w, "  %-28s %14.6g ratio (%d of %d operations)\n", "failed_frac", b.led.frac(), b.led.failed, b.led.attempted)
	for _, k := range sortedKeys(b.led.kinds) {
		fmt.Fprintf(w, "  failures %s: %d\n", k, b.led.kinds[k])
	}
	for _, n := range b.led.notes {
		fmt.Fprintf(w, "  failure: %s\n", n)
	}
}

// endToEndValues computes the end-to-end metrics over the run's whole
// cycles. restore_s and checkpoint_ms are means, not medians: their
// cost follows the state a layout holds at its midpoint, which varies
// more than the host does between two of them (on storm, one layout's
// checkpoint takes 9 ms and another's 50 ms), and a mean over a cycle
// weighs every layout.
//
// On serve the status-poll p50 and tail are each set's, and the run
// reports their median over the sets: a set's polls all wait on that
// set's runs, so one slow set would otherwise set the whole run's
// tail. Serve's setup_s is the fastest of its sets' city submits: on
// the VM the benchmark was tuned on, one submit read from 1.4 ms to
// 4.1 ms from one set to the next, so a median over a run's five sets
// moves with how many of them were slow.
func (b *bench) endToEndValues() map[string]float64 {
	v := map[string]float64{
		"setup_s":         median(b.setups),
		"control_p50_ms":  median(b.waits),
		"control_tail_ms": tailOf(b.waits).Value,
		"checkpoint_ms":   mean(b.checkpoints),
		"restore_s":       mean(b.restores),
		"live_heap_mb":    mean(b.heaps),
	}
	if len(b.waitSets) > 0 {
		var p50s, tails []float64
		for _, ws := range b.waitSets {
			p50s = append(p50s, median(ws))
			tails = append(tails, tailOf(ws).Value)
		}
		v["control_p50_ms"], v["control_tail_ms"] = median(p50s), median(tails)
		v["setup_s"] = minimum(b.setups)
	}
	if b.host > 0 {
		v["speed_x"] = b.virtual / b.host
	}
	return v
}
