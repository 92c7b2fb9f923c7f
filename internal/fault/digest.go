package fault

import "whitefi/internal/checkpoint"

// DigestState writes the injector's canonical state to d, for
// checkpoint section digests: the configuration identity, run/stop
// generation, every fired fault event in engine order (the
// determinism-pinned fault trace), and each registered target's
// current down flag. The per-(target, kind) schedule RNGs are excluded
// like every other RNG stream (see sim.Engine.DigestState); their
// positions are pinned transitively by the fired-event record plus the
// engine's pending-event digest, which carries the next scheduled
// fault of every stream.
func (in *Injector) DigestState(d *checkpoint.Digest) {
	d.Row("inj").Int("seed", in.Cfg.Seed).Float("rate", in.Cfg.Rate).Bool("running", in.running).
		Int("gen", int64(in.gen)).Int("targets", int64(len(in.targets))).Int("events", int64(len(in.Events))).End()
	for _, e := range in.Events {
		d.Line(e.Line())
	}
	for _, t := range in.targets {
		d.Row("target").Int("id", int64(t.id)).Bool("down", t.down).End()
	}
}

// EventCount reports the number of fired fault events — the item count
// of the injector's checkpoint section.
func (in *Injector) EventCount() int { return len(in.Events) }

// DigestState writes the loss overlay's canonical state to d: the
// per-state loss probabilities, the running flag, and the current
// Gilbert–Elliott channel state. The flip/filter RNG position is
// excluded like every other RNG stream; it is pinned transitively by
// the medium's FilterDrops counter and delivery record.
func (g *GilbertElliott) DigestState(d *checkpoint.Digest) {
	d.Row("ge").Float("lossgood", 0).Float("lossbad", geLossBad).Bool("bad", g.bad).
		Bool("running", g.running).Bool("detached", g.detached).Int("drops", int64(g.Drops)).
		Int("deliveries", int64(g.Deliveries)).End()
}
