package sim

import (
	"fmt"
	"io"
	"sort"
)

// DigestState writes a canonical rendition of the engine's live state
// to w, for checkpoint section digests. It covers the clock, sequence
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
func (e *Engine) DigestState(w io.Writer) {
	fmt.Fprintf(w, "sim now=%d seq=%d dispatched=%d pending=%d free=%d seed=%d\n",
		int64(e.now), e.seq, e.dispatched, len(e.queue), len(e.free), e.seed)
	evs := make([]slot, len(e.queue))
	copy(evs, e.queue)
	sort.Slice(evs, func(i, j int) bool { return evs[i].before(&evs[j]) })
	for _, s := range evs {
		kind := "fn"
		if s.ev.argFn != nil {
			kind = "arg"
		}
		fmt.Fprintf(w, "ev at=%d seq=%d kind=%s arg=%d\n", int64(s.at), s.seq, kind, s.ev.arg)
	}
	ids := make([]int, 0, len(e.nodeRngs))
	for id := range e.nodeRngs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintf(w, "rng streams=%d ids=%v\n", len(ids), ids)
}

// PendingCount reports the number of queued (not yet fired) events —
// the item count of the engine's checkpoint section.
func (e *Engine) PendingCount() int { return len(e.queue) }

// DigestState writes the canonical state of every member engine:
// the global engine first, then each shard in shard order, prefixed
// with a header carrying the shard layout and barrier floor.
func (s *ShardedEngine) DigestState(w io.Writer) {
	fmt.Fprintf(w, "sharded shards=%d floor=%d\n", len(s.shards), int64(s.floor))
	s.global.DigestState(w)
	for i, sh := range s.shards {
		fmt.Fprintf(w, "shard %d\n", i)
		sh.DigestState(w)
	}
}

// PendingCount reports the total queued events across the global and
// shard engines.
func (s *ShardedEngine) PendingCount() int {
	n := s.global.PendingCount()
	for _, sh := range s.shards {
		n += sh.PendingCount()
	}
	return n
}
