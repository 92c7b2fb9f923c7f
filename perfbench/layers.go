package main

// layerPkgs lists the simulator's layers: every package under
// internal/. Each gets a <pkg>.cpu_s row.
var layerPkgs = []string{
	"assign", "audio", "checkpoint", "chirp", "core", "discovery", "dynamics",
	"exp", "fault", "incumbent", "iq", "mac", "obs", "phy", "radio", "server",
	"sift", "sim", "spectrum", "trace", "traffic",
}

// perLayer lists the metrics of a traced run, in print order. Each is
// a total over one cycle of the workload's layouts (peaks and ratios
// excepted); a layer a workload does not exercise reads 0.
var perLayer = append([]metricDef{
	{"exp.build_s", "s", "lower"},
	{"exp.advance_s", "s", "lower"},
	{"exp.result_ms", "ms", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.events_per_launch", "ratio", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.pending_peak", "count", "lower"},
	{"sim.worker_util", "ratio", "higher"},
	{"sim.worker_cpu_s", "s", "lower"},
	{"sim.worker_capacity_s", "s", "lower"},
	{"mac.launches", "count", "lower"},
	{"mac.delivered", "count", "higher"},
	{"mac.candidates", "count", "lower"},
	{"mac.delivery_ratio", "ratio", "higher"},
	{"mac.collisions", "count", "lower"},
	{"mac.tx_data", "count", "lower"},
	{"mac.tx_ok", "count", "higher"},
	{"mac.tx_ok_ratio", "ratio", "higher"},
	{"mac.ack_timeouts", "count", "lower"},
	{"mac.queue_dropped", "count", "lower"},
	{"mac.log_peak", "count", "lower"},
	{"mac.active_peak", "count", "lower"},
	{"radio.scans", "count", "lower"},
	{"radio.pulses", "count", "lower"},
	{"radio.detections", "count", "higher"},
	{"radio.detect_ratio", "ratio", "higher"},
	{"radio.chirp_decodes", "count", "higher"},
	{"assign.evaluations", "count", "lower"},
	{"core.disconnects", "count", "lower"},
	{"core.reconnections", "count", "higher"},
	{"core.rendezvous_attempts", "count", "lower"},
	{"core.chirps_sent", "count", "lower"},
	{"traffic.generated", "count", "higher"},
	{"traffic.delivered", "count", "higher"},
	{"traffic.delivery_ratio", "ratio", "higher"},
	{"traffic.queue_dropped", "count", "lower"},
	{"fault.injections", "count", "lower"},
	{"obs.snapshot_bytes", "bytes", "lower"},
	{"checkpoint.capture_ms", "ms", "lower"},
	{"checkpoint.encode_ms", "ms", "lower"},
	{"checkpoint.decode_ms", "ms", "lower"},
	{"checkpoint.restore_s", "s", "lower"},
	{"checkpoint.bytes", "bytes", "lower"},
	{"server.submit_ms", "ms", "lower"},
	{"server.status_ms", "ms", "lower"},
	{"server.pause_ms", "ms", "lower"},
	{"server.checkpoint_ms", "ms", "lower"},
	{"server.fork_ms", "ms", "lower"},
	{"server.resume_ms", "ms", "lower"},
	{"server.restore_ms", "ms", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_mb", "MiB", "lower"},
	{"runtime.mallocs", "count", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.traced_s", "s", "lower"},
	{"bench.profiled_s", "s", "lower"},
	{"bench.cpu_attributed", "ratio", "higher"},
	{"bench.cpu_samples", "count", "higher"},
	{"bench.cpu_samples_attributed", "count", "higher"},
}, cpuRows()...)

// cpuRows lists the per-layer CPU self-time rows.
func cpuRows() []metricDef {
	var out []metricDef
	for _, p := range append(append([]string(nil), layerPkgs...), layerRuntime, layerUnattributed) {
		out = append(out, metricDef{p + ".cpu_s", "s", "lower"})
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerValues computes the per-layer metrics of a traced run.
func (b *bench) perLayerValues() map[string]float64 {
	n := b.cycles()
	c := func(name string) float64 { return b.count[name] / n }
	span := func(name string) float64 { return b.tr.total(name) / n }

	v := map[string]float64{
		"exp.build_s":           span("exp.build"),
		"exp.advance_s":         span("exp.advance"),
		"exp.result_ms":         1e3 * span("exp.result"),
		"sim.events":            c("engine.dispatched"),
		"sim.pending_peak":      b.peak["engine.pending"],
		"sim.worker_cpu_s":      b.workCPU / n,
		"sim.worker_capacity_s": b.workCap / n,
		"sim.worker_util":       ratio(b.workCPU, b.workCap),

		"mac.launches":      c("air.launches"),
		"mac.delivered":     c("air.delivered"),
		"mac.candidates":    c("air.delivered") + c("air.collisions") + c("air.below_floor") + c("air.half_duplex") + c("air.filter_drops"),
		"mac.collisions":    c("air.collisions"),
		"mac.tx_data":       c("mac.tx_data"),
		"mac.tx_ok":         c("mac.tx_ok"),
		"mac.ack_timeouts":  c("mac.ack_timeouts"),
		"mac.queue_dropped": c("mac.queue_dropped"),
		"mac.log_peak":      b.peak["air.log_size"],
		"mac.active_peak":   b.peak["air.active"],

		"radio.scans":         c("radio.ap.scans"),
		"radio.pulses":        c("radio.ap.pulses"),
		"radio.detections":    c("radio.ap.detections"),
		"radio.chirp_decodes": c("radio.ap.chirp_decodes"),

		"assign.evaluations": c("assign.mcham"),

		"core.disconnects":         c("core.disconnects"),
		"core.reconnections":       c("core.reconnections"),
		"core.rendezvous_attempts": c("core.rendezvous_attempts"),
		"core.chirps_sent":         c("core.chirps_sent"),

		"traffic.generated":     c("traffic.generated"),
		"traffic.delivered":     c("traffic.delivered"),
		"traffic.queue_dropped": c("traffic.queue_dropped"),

		"fault.injections":   c("fault.injections"),
		"obs.snapshot_bytes": c("obs.snapshot_bytes"),

		"checkpoint.capture_ms": 1e3 * span("checkpoint.capture"),
		"checkpoint.encode_ms":  1e3 * span("checkpoint.encode"),
		"checkpoint.decode_ms":  1e3 * span("checkpoint.decode"),
		"checkpoint.restore_s":  span("checkpoint.restore"),
		"checkpoint.bytes":      c("checkpoint.bytes"),

		"server.submit_ms":     1e3 * span("server.submit"),
		"server.status_ms":     1e3 * span("server.status"),
		"server.pause_ms":      1e3 * span("server.pause"),
		"server.checkpoint_ms": 1e3 * span("server.checkpoint"),
		"server.fork_ms":       1e3 * span("server.fork"),
		"server.resume_ms":     1e3 * span("server.resume"),
		"server.restore_ms":    1e3 * span("server.restore"),

		"runtime.gc_cpu_s":  b.rt[0] / n,
		"runtime.gc_cycles": b.rt[1] / n,
		"runtime.alloc_mb":  b.rt[2] / n / (1 << 20),
		"runtime.mallocs":   b.rt[3] / n,

		"bench.cpu_attributed":         b.cpu.attributed(),
		"bench.cpu_samples":            float64(b.cpu.total) / n,
		"bench.cpu_samples_attributed": float64(b.cpu.total-b.cpu.samples[layerUnattributed]) / n,
	}
	v["sim.events_per_launch"] = ratio(v["sim.events"], v["mac.launches"])
	v["mac.delivery_ratio"] = ratio(v["mac.delivered"], v["mac.candidates"])
	v["mac.tx_ok_ratio"] = ratio(v["mac.tx_ok"], v["mac.tx_data"])
	v["radio.detect_ratio"] = ratio(v["radio.detections"], v["radio.pulses"])
	v["traffic.delivery_ratio"] = ratio(v["traffic.delivered"], v["traffic.generated"])

	// Engine time per event is defined where the benchmark times the
	// engine itself, in batch reps; a served run's time includes HTTP.
	// It takes the profiled pass's time, which has telemetry off.
	if len(b.served) == 0 {
		v["sim.ns_per_event"] = ratio(1e9*b.profiled, b.count["engine.dispatched"])
	}
	v["bench.traced_s"] = b.host / n
	v["bench.profiled_s"] = b.profiled / n
	v["bench.trace_overhead"] = ratio(b.host, b.profiled)

	for _, d := range cpuRows() {
		layer := d.Name[:len(d.Name)-len(".cpu_s")]
		v[d.Name] = float64(b.cpu.ns[layer]) / 1e9 / n
	}
	return v
}
