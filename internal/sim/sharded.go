package sim

import (
	"runtime"
	"sync"
	"time"
)

// ShardedEngine runs S independent shard Engines in parallel under
// conservative lookahead, plus one coordinator ("global") Engine whose
// events double as the barrier schedule.
//
// Execution alternates between two phases:
//
//   - Window: every shard advances independently (in parallel, on up
//     to Workers goroutines) to the same horizon h — the earlier of
//     the RunUntil deadline and the global engine's next event time.
//     The horizon is the conservative lookahead: because the next
//     global event is the earliest instant at which anything outside a
//     shard can observe or influence it, a shard processing events
//     strictly before h can never violate causality.
//   - Barrier: with every shard clock equal to h, the coordinator
//     fires the global events at h single-threaded. Global callbacks
//     may read any shard's state (all shards are paused at exactly h)
//     and may schedule new work onto shards or onto the global engine.
//
// Determinism contract. The coordinator adds no randomness and no
// ordering freedom of its own: shard event order is each shard
// Engine's usual (time, seq) order, and barrier work runs in schedule
// order on the single coordinator goroutine. A run is therefore
// bit-identical at any Workers count by construction, and bit-identical
// at any shard count provided the model itself is shard-invariant:
// shards must not interact except through barrier-time global events,
// and shared randomness must come from per-entity streams (RandFor)
// rather than the engines' global Rand. The mac-layer shard planner
// (mac.PlanShards) establishes the no-interaction property for spatial
// worlds; exp's tiled scenarios wire the rest.
//
// Shard code must never touch the global engine or another shard
// mid-window — there is no locking, by design; the -race equivalence
// tests are the tripwire for violations.
type ShardedEngine struct {
	// Workers bounds the goroutines advancing shards within a window.
	// <= 0 selects GOMAXPROCS; it is further capped at the shard
	// count. The value changes wall-clock only, never results.
	Workers int

	global *Engine
	shards []*Engine
	floor  time.Duration // completed-barrier time: min over shard clocks is >= floor at all times
}

// NewSharded returns a coordinator over n shard engines (n >= 1). All
// engines — global and shards — are created with the same seed, so
// RandFor(id) yields the same per-entity stream wherever the entity
// lands.
func NewSharded(seed int64, n int) *ShardedEngine {
	if n < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	s := &ShardedEngine{global: New(seed)}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, New(seed))
	}
	return s
}

// Global returns the coordinator engine. Events scheduled here are the
// barrier schedule: they run single-threaded with every shard paused
// at the event's exact time, so they may safely read cross-shard
// state. Observers, samplers, and any state shared across shards
// belong here.
func (s *ShardedEngine) Global() *Engine { return s.global }

// Shards returns the number of shard engines.
func (s *ShardedEngine) Shards() int { return len(s.shards) }

// Shard returns shard i's engine. Build each shard's world (medium,
// nodes, flows) against its own engine; events scheduled here run
// inside that shard's windows.
func (s *ShardedEngine) Shard(i int) *Engine { return s.shards[i] }

// Now returns the coordinator's virtual time: the last barrier the run
// has fully completed.
func (s *ShardedEngine) Now() time.Duration { return s.global.Now() }

// Floor returns a lower bound on every shard's clock: the time of the
// last completed window. It is safe to call from shard callbacks
// mid-window (the coordinator only advances it between windows), which
// is exactly what mac.Air.PruneClock needs — pruning history against
// Floor instead of a shard's own (possibly leading) clock guarantees a
// lagging reader can never lose history a leading shard already
// discarded.
func (s *ShardedEngine) Floor() time.Duration { return s.floor }

// RunUntil advances the whole sharded world to deadline: windows of
// parallel shard execution separated by single-threaded barriers at
// each global event time. On return every shard and the global engine
// sit at exactly deadline with no pending events at or before it.
func (s *ShardedEngine) RunUntil(deadline time.Duration) {
	for {
		h := deadline
		if at, ok := s.global.NextAt(); ok && at < h {
			h = at
		}
		s.advance(h)
		s.floor = h
		s.global.RunUntil(h)
		if h < deadline {
			continue
		}
		// A barrier callback at the deadline may have pushed shard work
		// at the deadline itself; sweep again until nothing is due, so
		// RunUntil(d) means the same thing it does on a serial Engine.
		if !s.shardsDue(deadline) {
			return
		}
	}
}

// shardsDue reports whether any shard still has an event at or before t.
func (s *ShardedEngine) shardsDue(t time.Duration) bool {
	for _, sh := range s.shards {
		if at, ok := sh.NextAt(); ok && at <= t {
			return true
		}
	}
	return false
}

// advance runs every shard to horizon h, in parallel when more than
// one worker is available. Shards are statically strided over workers;
// the assignment affects wall clock only, since shards share nothing.
func (s *ShardedEngine) advance(h time.Duration) {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(s.shards) {
		w = len(s.shards)
	}
	if w <= 1 {
		for _, sh := range s.shards {
			sh.RunUntil(h)
		}
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(s.shards); i += w {
				s.shards[i].RunUntil(h)
			}
		}(k)
	}
	wg.Wait()
}

// Dispatched sums events fired across the global engine and every
// shard.
func (s *ShardedEngine) Dispatched() uint64 {
	n := s.global.Dispatched()
	for _, sh := range s.shards {
		n += sh.Dispatched()
	}
	return n
}

// Pending sums scheduled events across the global engine and every
// shard.
func (s *ShardedEngine) Pending() int {
	n := s.global.Pending()
	for _, sh := range s.shards {
		n += sh.Pending()
	}
	return n
}

// FreeEvents sums event-pool free lists across the global engine and
// every shard.
func (s *ShardedEngine) FreeEvents() int {
	n := s.global.FreeEvents()
	for _, sh := range s.shards {
		n += sh.FreeEvents()
	}
	return n
}
