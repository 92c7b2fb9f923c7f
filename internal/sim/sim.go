// Package sim provides a single-threaded discrete-event scheduler with
// a seeded random source. Events are pooled per Engine: firing or
// cancelling an event returns its storage to an engine-owned free list,
// and the Handle returned by the Schedule methods carries a generation
// counter so a stale handle (kept past the event's firing) can never
// cancel the slot's next occupant. The pool keeps steady-state
// scheduling allocation-free, which matters because event churn
// dominates the allocation profile of large scenario runs; free lists
// are engine-local so the design stays compatible with per-shard arenas
// (no cross-engine pointers).
package sim

import (
	"math"
	"math/rand"
	"time"
)

// event is a pooled scheduled callback. Exactly one of fn/argFn is
// non-nil. gen is bumped every time the slot is released (fired or
// cancelled), invalidating outstanding Handles. The event's ordering
// key lives in its queue slot, not here.
type event struct {
	fn    func()
	argFn func(uint64)
	arg   uint64
	index int // heap index, or absolute ring position in its lane
	gen   uint32
	lane  uint16 // 0 while in the heap; k while in lanes[k-1]
	live  bool   // queued and not yet fired/cancelled
}

// Handle identifies a scheduled event for cancellation. The zero
// Handle is valid and refers to no event; cancelling it is a no-op, as
// is cancelling a handle whose event has already fired or been
// cancelled (the generation check makes stale handles inert rather
// than dangerous, even after the pooled slot is reused).
type Handle struct {
	ev  *event
	gen uint32
}

// Scheduled reports whether the handle's event is still pending: not
// yet fired and not cancelled. The zero Handle reports false.
func (h Handle) Scheduled() bool { return h.ev != nil && h.ev.gen == h.gen && h.ev.live }

// slot is one entry of the event queue: the ordering key (at, seq)
// held inline next to its event, so sifting compares contiguous queue
// memory and dereferences an event only to record its new index.
type slot struct {
	at  time.Duration
	seq uint64
	ev  *event
}

// before orders slots by (at, seq). seq is unique per engine, so this
// is a total order: any correct min-heap pops the same sequence, which
// is what keeps the firing order independent of the queue's layout.
func (s *slot) before(o *slot) bool {
	return s.at < o.at || (s.at == o.at && s.seq < o.seq)
}

// arity is the fan-out of the event heap. A 4-ary heap is half as deep
// as a binary one, and a node's children sit in two adjacent cache
// lines. Against a binary heap it measured even within noise, both in
// BenchmarkQueueStep and on the benchmark's city workload (EXPERIMENTS.md
// "Performance trajectory").
const arity = 4

// eventQueue is a typed arity-ary min-heap of slots ordered by before.
// Every move of a slot writes the slot's index into its event, so
// Cancel can remove an arbitrary event in O(log n).
type eventQueue []slot

// push inserts s.
func (q *eventQueue) push(s slot) {
	*q = append(*q, s)
	q.up(len(*q)-1, s)
}

// pop removes and returns the earliest slot; the queue must not be
// empty.
func (q *eventQueue) pop() slot {
	h := *q
	top := h[0]
	q.removeAt(0)
	return top
}

// removeAt deletes the slot at index i: the last slot fills the hole
// and sifts whichever way restores the heap.
func (q *eventQueue) removeAt(i int) {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	h = h[:n]
	*q = h
	if i == n {
		return
	}
	if i > 0 && last.before(&h[(i-1)/arity]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// up places s into the hole at i or above it, moving later parents
// down into the hole.
func (q eventQueue) up(i int, s slot) {
	for i > 0 {
		p := (i - 1) / arity
		if !s.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = s
	s.ev.index = i
}

// down places s into the hole at i or below it, moving the earliest
// child up into the hole while that child orders before s.
func (q eventQueue) down(i int, s slot) {
	n := len(q)
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		end := min(c+arity, n)
		m := c
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&s) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = s
	s.ev.index = i
}

// laneCap is a lane ring's first capacity; it doubles when full.
const laneCap = 64

// lane is a FIFO ring of the events scheduled by AfterFixed with one
// delay d. The clock never goes back and seq only grows, so each entry
// appended at now+d orders after every entry already in the lane: the
// ring stays sorted by (at, seq) and its head is its least entry.
// Positions are absolute. Entry p lives at ring[p&(len(ring)-1)], which
// still holds after the ring doubles, so an event keeps its position
// for its whole life. Cancel clears an entry in place, and the head
// always rests on a live entry or at tail.
type lane struct {
	d          time.Duration
	ring       []slot
	head, tail int
}

// push appends s and returns its position, doubling the ring when it
// is full.
func (l *lane) push(s slot) int {
	if l.tail-l.head == len(l.ring) {
		ring := make([]slot, max(2*len(l.ring), laneCap))
		for p := l.head; p < l.tail; p++ {
			ring[p&(len(ring)-1)] = l.ring[p&(len(l.ring)-1)]
		}
		l.ring = ring
	}
	p := l.tail
	l.ring[p&(len(l.ring)-1)] = s
	l.tail++
	return p
}

// clear empties the entry at position p. When p is the head, the head
// moves past every cleared entry behind it.
func (l *lane) clear(p int) {
	m := len(l.ring) - 1
	l.ring[p&m] = slot{}
	if p != l.head {
		return
	}
	for l.head++; l.head < l.tail && l.ring[l.head&m].ev == nil; l.head++ {
	}
}

// Engine is a single-threaded discrete-event scheduler with a seeded
// random number generator. Create one with New.
//
// Pending events wait in a heap, except those scheduled by AfterFixed,
// which wait in one FIFO lane per delay. The next event is the least
// (at, seq) among the heap top and the lane heads.
type Engine struct {
	now        time.Duration
	seq        uint64
	queue      eventQueue
	lanes      []lane
	laneLive   int // live entries across all lanes
	free       []*event
	seed       int64
	rng        *rand.Rand
	nodeRngs   map[int]*rand.Rand
	dispatched uint64
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. Draws from it
// are consumed in global event order, so two entities sharing it are
// coupled through the schedule; entity-local determinism (the property
// the sharded engine needs) comes from RandFor instead.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// RandFor returns a deterministic random stream private to the given
// entity id, lazily created and cached. The stream's seed mixes only
// the engine seed and the id, so an entity sees the same realisation
// on any engine created with the same seed — in particular on any
// shard of a ShardedEngine, at any shard count. Entities that must
// stay identical across execution layouts (e.g. per-node DCF backoff)
// draw from here instead of Rand.
func (e *Engine) RandFor(id int) *rand.Rand {
	if r, ok := e.nodeRngs[id]; ok {
		return r
	}
	if e.nodeRngs == nil {
		e.nodeRngs = make(map[int]*rand.Rand)
	}
	r := rand.New(rand.NewSource(mixSeed(e.seed, int64(id))))
	e.nodeRngs[id] = r
	return r
}

// mixSeed hashes (seed, id) into a well-spread 63-bit stream seed
// (splitmix64 finalizer), so per-entity streams are decorrelated even
// for adjacent ids.
func mixSeed(seed, id int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// alloc takes an event from the free list, or grows the pool.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.live = true
		return ev
	}
	return &event{live: true}
}

// release returns a fired or cancelled event to the free list, bumping
// its generation so outstanding Handles go stale. Callbacks are cleared
// so the pool does not pin closures.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.live = false
	ev.lane = 0
	ev.fn = nil
	ev.argFn = nil
	ev.arg = 0
	e.free = append(e.free, ev)
}

// enqueue inserts a pooled event at time at (clamped to now).
func (e *Engine) enqueue(at time.Duration, ev *event) Handle {
	if at < e.now {
		at = e.now
	}
	e.queue.push(slot{at: at, seq: e.seq, ev: ev})
	e.seq++
	return Handle{ev: ev, gen: ev.gen}
}

// Schedule runs fn at virtual time at. Times in the past (including the
// current instant) run as soon as the engine resumes processing, before
// any later event. It returns a handle that can be cancelled.
func (e *Engine) Schedule(at time.Duration, fn func()) Handle {
	ev := e.alloc()
	ev.fn = fn
	return e.enqueue(at, ev)
}

// After runs fn d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) Handle {
	return e.Schedule(e.now+d, fn)
}

// AfterFixed runs fn d after the current virtual time, clamped to now
// as After clamps, and fires in exactly the order After would. The
// event waits in the FIFO lane for its delay instead of the heap, so
// scheduling and firing it cost O(1). Every distinct delay opens a lane
// that lives as long as the engine and that each later Step compares:
// AfterFixed is for a few delays that recur constantly (the DCF backoff
// slot), not for drawn ones.
func (e *Engine) AfterFixed(d time.Duration, fn func()) Handle {
	at := e.now + d
	if at < e.now {
		at = e.now
	}
	k := e.laneFor(at - e.now)
	ev := e.alloc()
	ev.fn = fn
	ev.lane = uint16(k + 1)
	ev.index = e.lanes[k].push(slot{at: at, seq: e.seq, ev: ev})
	e.seq++
	e.laneLive++
	return Handle{ev: ev, gen: ev.gen}
}

// laneFor returns the index of the lane holding delay d, opening it if
// needed.
func (e *Engine) laneFor(d time.Duration) int {
	for i := range e.lanes {
		if e.lanes[i].d == d {
			return i
		}
	}
	if len(e.lanes) == math.MaxUint16 {
		panic("sim: too many AfterFixed delays")
	}
	e.lanes = append(e.lanes, lane{d: d})
	return len(e.lanes) - 1
}

// ScheduleArg runs fn(arg) at virtual time at (clamped like Schedule).
// Passing state through arg instead of a closure capture keeps hot-path
// scheduling allocation-free: fn can be a long-lived bound function
// while arg carries the per-event word (a packed handle, a generation
// counter, a node id).
func (e *Engine) ScheduleArg(at time.Duration, fn func(uint64), arg uint64) Handle {
	ev := e.alloc()
	ev.argFn = fn
	ev.arg = arg
	return e.enqueue(at, ev)
}

// AfterArg runs fn(arg) d after the current virtual time.
func (e *Engine) AfterArg(d time.Duration, fn func(uint64), arg uint64) Handle {
	return e.ScheduleArg(e.now+d, fn, arg)
}

// Cancel prevents a pending event from firing. Cancelling the zero
// Handle, a fired event, or an already-cancelled event is a no-op: the
// generation check rejects stale handles even after the slot has been
// reused for a newer event.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || !ev.live {
		return
	}
	if ev.lane != 0 {
		e.lanes[ev.lane-1].clear(ev.index)
		e.laneLive--
	} else {
		e.queue.removeAt(ev.index)
	}
	e.release(ev)
}

// next returns the least pending slot and where it waits: the heap
// (-1) or a lane index. The slot is nil when nothing is pending.
func (e *Engine) next() (*slot, int) {
	var s *slot
	src := -1
	if len(e.queue) > 0 {
		s = &e.queue[0]
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.head == l.tail {
			continue
		}
		if h := &l.ring[l.head&(len(l.ring)-1)]; s == nil || h.before(s) {
			s, src = h, i
		}
	}
	return s, src
}

// fire removes the least pending event from src, as returned by next,
// advances the clock to its time and runs it. The event's storage is
// released before its callback runs, so a callback that reschedules
// typically reuses the slot it just fired from.
func (e *Engine) fire(src int) {
	var s slot
	if src < 0 {
		s = e.queue.pop()
	} else {
		l := &e.lanes[src]
		s = l.ring[l.head&(len(l.ring)-1)]
		l.clear(l.head)
		e.laneLive--
	}
	ev := s.ev
	e.now = s.at
	e.dispatched++
	fn, argFn, arg := ev.fn, ev.argFn, ev.arg
	e.release(ev)
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
}

// Step fires the next pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	s, src := e.next()
	if s == nil {
		return false
	}
	e.fire(src)
	return true
}

// RunUntil processes events in order until the queue is empty or the next
// event is after deadline; the clock is then set to deadline.
func (e *Engine) RunUntil(deadline time.Duration) {
	for {
		s, src := e.next()
		if s == nil || s.at > deadline {
			break
		}
		e.fire(src)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run processes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Ticker is a repeating scheduled callback (see Every). Stop cancels
// future firings.
type Ticker struct {
	eng    *Engine
	period time.Duration
	fn     func()
	tickFn func() // bound once so rescheduling does not allocate
	ev     Handle
	done   bool
}

// Every runs fn every period, first at now+period, until Stop is called.
// The dynamics layer uses it as the mobility epoch ticker.
func (e *Engine) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every needs a positive period")
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	t.tickFn = t.tick
	t.ev = e.After(period, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if t.done {
		return
	}
	t.fn()
	// fn may have stopped the ticker; rescheduling then would leave a
	// phantom pending event.
	if t.done {
		return
	}
	t.ev = t.eng.After(t.period, t.tickFn)
}

// Stop cancels the ticker; firing a stopped ticker is a no-op.
func (t *Ticker) Stop() {
	t.done = true
	t.eng.Cancel(t.ev)
	t.ev = Handle{}
}

// Pending returns the number of scheduled events that have neither
// fired nor been cancelled. A cancelled lane event leaves a cleared
// entry in its ring until the lane's head passes it; that entry does
// not count.
func (e *Engine) Pending() int { return len(e.queue) + e.laneLive }

// NextAt returns the virtual time of the earliest pending event, or
// ok=false when the queue is empty. The sharded coordinator peeks it to
// size the next conservative window.
func (e *Engine) NextAt() (time.Duration, bool) {
	s, _ := e.next()
	if s == nil {
		return 0, false
	}
	return s.at, true
}

// Dispatched returns the total number of events fired since the engine
// was created — the raw work counter the observability layer samples.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// FreeEvents returns the current size of the engine's event free list
// (pool occupancy, for pool telemetry).
func (e *Engine) FreeEvents() int { return len(e.free) }
