package sim

import (
	"slices"
	"sort"

	"whitefi/internal/checkpoint"
)

// DigestState writes a canonical rendition of the engine's live state
// to d, for checkpoint section digests. It covers the clock, sequence
// counter, dispatch count, pool occupancy, and every pending event in
// firing order (time, sequence, callback shape, and argument — the
// callback closure itself is code, not state, so two engines built by
// the same scenario at the same virtual time render identically).
//
// Per-entity RNG streams (RandFor) are listed by id only: math/rand
// does not expose its internal position, so stream positions are a
// documented checkpoint exclusion — restore reconstructs them by
// replaying the run, and any positional divergence surfaces in the
// event queue or downstream section digests instead. See DESIGN.md
// "Checkpoint & serving".
func (e *Engine) DigestState(d *checkpoint.Digest) {
	d.Row("sim").Int("now", int64(e.now)).Uint("seq", e.seq).Uint("dispatched", e.dispatched).
		Int("pending", int64(e.Pending())).Int("free", int64(len(e.free))).Int("seed", e.seed).End()
	evs := e.pendingSlots()
	sort.Slice(evs, func(i, j int) bool { return evs[i].before(&evs[j]) })
	for _, s := range evs {
		kind := "fn"
		if s.ev.argFn != nil {
			kind = "arg"
		}
		d.Row("ev").Int("at", int64(s.at)).Uint("seq", s.seq).Str("kind", kind).Uint("arg", s.ev.arg).End()
	}
	ids := make([]int64, 0, len(e.nodeRngs))
	for id := range e.nodeRngs {
		ids = append(ids, int64(id))
	}
	slices.Sort(ids)
	d.Row("rng").Int("streams", int64(len(ids))).Ints("ids", ids).End()
}

// pendingSlots returns every live slot, heap and lanes, in no
// particular order.
func (e *Engine) pendingSlots() []slot {
	evs := append(make([]slot, 0, e.Pending()), e.queue...)
	for i := range e.lanes {
		l := &e.lanes[i]
		for p := l.head; p < l.tail; p++ {
			if s := l.ring[p&(len(l.ring)-1)]; s.ev != nil {
				evs = append(evs, s)
			}
		}
	}
	return evs
}

// DigestState writes the canonical state of every member engine:
// the global engine first, then each shard in shard order, prefixed
// with a header carrying the shard layout and barrier floor.
func (s *ShardedEngine) DigestState(d *checkpoint.Digest) {
	d.Row("sharded").Int("shards", int64(len(s.shards))).Int("floor", int64(s.floor)).End()
	s.global.DigestState(d)
	for i, sh := range s.shards {
		d.Row("shard").Num(int64(i)).End()
		sh.DigestState(d)
	}
}
