package sim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestShardedBarrierOrder pins the window/barrier alternation: a
// global event at t must run after every shard event strictly before
// or at t, and before any shard event after t.
func TestShardedBarrierOrder(t *testing.T) {
	se := NewSharded(1, 3)
	var mu sync.Mutex
	var order []string
	mark := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	for i := 0; i < se.Shards(); i++ {
		i := i
		se.Shard(i).Schedule(5*time.Millisecond, func() { mark(fmt.Sprintf("s%d@5", i)) })
		se.Shard(i).Schedule(15*time.Millisecond, func() { mark(fmt.Sprintf("s%d@15", i)) })
	}
	se.Global().Schedule(10*time.Millisecond, func() {
		for i := 0; i < se.Shards(); i++ {
			if got := se.Shard(i).Now(); got != 10*time.Millisecond {
				t.Errorf("shard %d clock at barrier = %v, want 10ms", i, got)
			}
		}
		mark("g@10")
	})
	se.Workers = 1 // deterministic order for the transcript assertion
	se.RunUntil(20 * time.Millisecond)
	want := []string{"s0@5", "s1@5", "s2@5", "g@10", "s0@15", "s1@15", "s2@15"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if se.Now() != 20*time.Millisecond {
		t.Fatalf("global clock after run = %v, want 20ms", se.Now())
	}
	for i := 0; i < se.Shards(); i++ {
		if got := se.Shard(i).Now(); got != 20*time.Millisecond {
			t.Fatalf("shard %d clock after run = %v, want 20ms", i, got)
		}
	}
}

// TestShardedWorkerInvariance runs the same per-shard schedules at
// several worker counts and requires identical per-shard transcripts.
func TestShardedWorkerInvariance(t *testing.T) {
	run := func(workers int) [][]string {
		se := NewSharded(7, 4)
		se.Workers = workers
		logs := make([][]string, se.Shards())
		for i := 0; i < se.Shards(); i++ {
			i := i
			// A little self-rescheduling chain per shard, drawing from
			// the shard-invariant per-entity stream.
			var step func()
			n := 0
			step = func() {
				r := se.Shard(i).RandFor(100 + i)
				logs[i] = append(logs[i], fmt.Sprintf("%d:%v:%d", n, se.Shard(i).Now(), r.Intn(1000)))
				n++
				if n < 50 {
					se.Shard(i).After(time.Duration(1+n%3)*time.Millisecond, step)
				}
			}
			se.Shard(i).Schedule(0, step)
		}
		for tick := 10 * time.Millisecond; tick <= 100*time.Millisecond; tick += 10 * time.Millisecond {
			se.Global().Schedule(tick, func() {})
		}
		se.RunUntil(150 * time.Millisecond)
		return logs
	}
	base := run(1)
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for i := range base {
			if fmt.Sprint(got[i]) != fmt.Sprint(base[i]) {
				t.Fatalf("workers=%d shard %d transcript diverged", w, i)
			}
		}
	}
}

// TestRandForInvariance pins the per-entity stream property: the
// sequence an id draws depends only on (seed, id), not on which engine
// hosts it, which other ids draw, or the engine's global Rand use.
func TestRandForInvariance(t *testing.T) {
	a := New(42)
	b := New(42)
	// Perturb b: global draws and other ids' draws must not matter.
	b.Rand().Int63()
	b.RandFor(9).Int63()
	for i := 0; i < 100; i++ {
		if x, y := a.RandFor(5).Int63(), b.RandFor(5).Int63(); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
	if New(42).RandFor(5).Int63() == New(43).RandFor(5).Int63() &&
		New(42).RandFor(5).Int63() == New(44).RandFor(5).Int63() {
		t.Fatal("RandFor ignores the engine seed")
	}
}

// TestShardedFloor checks the prune-clock bound: from inside a shard
// callback mid-window, Floor never exceeds any shard's clock.
func TestShardedFloor(t *testing.T) {
	se := NewSharded(3, 2)
	bad := false
	for i := 0; i < se.Shards(); i++ {
		i := i
		for at := time.Millisecond; at <= 40*time.Millisecond; at += time.Millisecond {
			se.Shard(i).Schedule(at, func() {
				if se.Floor() > se.Shard(i).Now() {
					bad = true
				}
			})
		}
	}
	se.Global().Schedule(20*time.Millisecond, func() {})
	se.Workers = 1
	se.RunUntil(50 * time.Millisecond)
	if bad {
		t.Fatal("Floor exceeded a shard clock mid-window")
	}
	if se.Floor() != 50*time.Millisecond {
		t.Fatalf("final Floor = %v, want 50ms", se.Floor())
	}
}

// TestShardedDeadlineSweep: a barrier callback at the deadline that
// schedules shard work at the deadline, on the heap or in a fixed-delay
// lane, still gets that work executed before RunUntil returns — same
// semantics as serial RunUntil.
func TestShardedDeadlineSweep(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule func(e *Engine, fn func())
	}{
		{"Schedule", func(e *Engine, fn func()) { e.Schedule(10*time.Millisecond, fn) }},
		{"AfterFixed", func(e *Engine, fn func()) { e.AfterFixed(0, fn) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			se := NewSharded(1, 2)
			ran := false
			se.Global().Schedule(10*time.Millisecond, func() {
				tc.schedule(se.Shard(1), func() { ran = true })
			})
			se.RunUntil(10 * time.Millisecond)
			if !ran {
				t.Fatal("deadline-time shard event scheduled from a barrier did not run")
			}
			if n := se.Pending(); n != 0 {
				t.Fatalf("pending after run = %d, want 0", n)
			}
		})
	}
}

// TestShardedAggregates sanity-checks the summed telemetry accessors.
func TestShardedAggregates(t *testing.T) {
	se := NewSharded(1, 2)
	se.Shard(0).Schedule(time.Millisecond, func() {})
	se.Shard(1).Schedule(time.Millisecond, func() {})
	se.Global().Schedule(2*time.Millisecond, func() {})
	if se.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", se.Pending())
	}
	se.RunUntil(5 * time.Millisecond)
	if se.Dispatched() != 3 {
		t.Fatalf("dispatched = %d, want 3", se.Dispatched())
	}
	if se.FreeEvents() == 0 {
		t.Fatal("event pools did not reclaim fired events")
	}
}
