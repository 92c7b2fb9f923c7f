package traffic

import "whitefi/internal/checkpoint"

// DigestState writes the flow's canonical generator and telemetry
// state to d, for checkpoint section digests: the spec identity, the
// generator's position (running flag, start time, burst ON budget,
// duplicate-filter watermarks, pending timers), and the full streaming
// telemetry including the internal P² sketch markers — mid-stream
// sketch state is order-sensitive and must round-trip exactly (see
// trace.Quantile.DigestState). The flow's inter-arrival RNG position
// is excluded like every other RNG stream (see
// sim.Engine.DigestState); its draws are pinned transitively by the
// generated-packet counts and the engine's pending-event digest.
func (f *Flow) DigestState(d *checkpoint.Digest) {
	d.Row("flow").Int("id", int64(f.ID)).Int("model", int64(f.Spec.Model)).Bool("up", f.Spec.Uplink).
		Int("bytes", int64(f.Spec.Bytes)).Int("ival", int64(f.Spec.Interval)).Bool("run", f.running).
		Int("start", int64(f.startAt)).Int("on", int64(f.onLeft)).Int("lastdata", f.lastDataSeq).
		Int("lastreq", f.lastReqSeq).Bool("evs", f.ev.Scheduled()).Bool("timeout", f.timeoutEv.Scheduled()).End()
	t := &f.Tel
	d.Row("tel").Int("gen", int64(t.Generated)).Int("req", int64(t.Requests)).Int("qdrop", int64(t.QueueDropped)).
		Int("reqdrop", int64(t.RequestDropped)).Int("del", int64(t.Delivered)).Int("bytes", t.DeliveredBytes).
		Int("max", int64(t.DelayMax)).Int("lastat", int64(t.LastDeliveredAt)).Int("sum", int64(t.delaySum)).
		Int("last", int64(t.lastDelay)).Bool("have", t.haveLast).Int("jsum", int64(t.jitterSum)).
		Int("jn", int64(t.jitterN)).End()
	t.p50.DigestState(d)
	t.p95.DigestState(d)
	t.p99.DigestState(d)
}
