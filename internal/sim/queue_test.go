package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
)

// refEvent is one pending event of the reference queue.
type refEvent struct {
	at   time.Duration
	seq  uint64
	id   int
	argK bool // scheduled through ScheduleArg
}

// refQueue is the naive model the engine's queue is checked against: an
// unordered slice searched linearly for the least (at, seq), with the
// engine's clock, sequence, dispatch and pool counters kept by hand.
type refQueue struct {
	now        time.Duration
	seq        uint64
	dispatched uint64
	pool       int // events ever allocated: the peak of len(pending)
	pending    []refEvent
}

func (r *refQueue) schedule(at time.Duration, id int, argK bool) {
	if at < r.now {
		at = r.now
	}
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, id: id, argK: argK})
	r.seq++
	r.pool = max(r.pool, len(r.pending))
}

// minIndex returns the index of the least pending (at, seq), or -1.
func (r *refQueue) minIndex() int {
	m := -1
	for i, ev := range r.pending {
		if m < 0 || ev.at < r.pending[m].at || (ev.at == r.pending[m].at && ev.seq < r.pending[m].seq) {
			m = i
		}
	}
	return m
}

func (r *refQueue) indexOf(id int) int {
	for i, ev := range r.pending {
		if ev.id == id {
			return i
		}
	}
	return -1
}

func (r *refQueue) removeAt(i int) {
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
}

func (r *refQueue) free() int { return r.pool - len(r.pending) }

// digest renders the reference state in DigestState's format.
func (r *refQueue) digest(seed int64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "sim now=%d seq=%d dispatched=%d pending=%d free=%d seed=%d\n",
		int64(r.now), r.seq, r.dispatched, len(r.pending), r.free(), seed)
	evs := append([]refEvent(nil), r.pending...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].seq < evs[j].seq })
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	for _, ev := range evs {
		kind, arg := "fn", 0
		if ev.argK {
			kind, arg = "arg", ev.id
		}
		fmt.Fprintf(&b, "ev at=%d seq=%d kind=%s arg=%d\n", int64(ev.at), ev.seq, kind, arg)
	}
	b.WriteString("rng streams=0 ids=[]\n")
	return b.Bytes()
}

// fixedDelays are the delays queueProgram passes to AfterFixed: zero
// and a negative delay (both clamp to now and share one lane), delays
// that tie the near-term heap events, and one long enough to queue
// many entries in its lane.
var fixedDelays = []time.Duration{0, -3, 2, 5, 60}

// queueProgram drives an engine and the reference in lockstep through a
// random program of n steps: callbacks schedule (Schedule, ScheduleArg
// and AfterFixed, into the past, at the current instant and ahead) and
// cancel (the current top, events at the current instant, a lane's head
// or middle, arbitrary and stale handles), and between steps the host
// cancels too. Halfway through, the host schedules a burst into one
// lane, cancelling every third entry, until the lane's ring outgrows its
// first capacity. After every step the firing order, Pending,
// FreeEvents, NextAt and the DigestState bytes must match the
// reference.
func queueProgram(seed int64, n int) error {
	const engSeed = 7
	rng := rand.New(rand.NewSource(seed))
	e := New(engSeed)
	ref := &refQueue{}
	var handles []Handle // by event id; fired and cancelled ones stay as stale handles
	var laneOf []int     // by event id: the delay of its lane, or -1 off the lanes
	var fixedIDs []int   // ids scheduled through AfterFixed
	fired := 0           // callbacks run so far
	var fail error
	failf := func(format string, args ...any) {
		if fail == nil {
			fail = fmt.Errorf(format, args...)
		}
	}

	// delay draws a scheduling offset: mostly near-term with many ties,
	// sometimes in the past (clamped to now) or far ahead.
	delay := func() time.Duration {
		switch k := rng.Intn(10); {
		case k < 2:
			return 0
		case k < 3:
			return -time.Duration(rng.Intn(5))
		case k < 8:
			return time.Duration(rng.Intn(8))
		default:
			return time.Duration(rng.Intn(200))
		}
	}
	var onFire func(id int)
	argFn := func(arg uint64) { onFire(int(arg)) }
	// scheduleFixed schedules through AfterFixed with fixedDelays[k].
	scheduleFixed := func(k int) {
		id := len(handles)
		d := fixedDelays[k]
		handles = append(handles, e.AfterFixed(d, func() { onFire(id) }))
		laneOf = append(laneOf, int(max(d, 0)))
		fixedIDs = append(fixedIDs, id)
		ref.schedule(e.Now()+d, id, false)
	}
	schedule := func() {
		k := rng.Intn(3)
		if k == 2 {
			scheduleFixed(rng.Intn(len(fixedDelays)))
			return
		}
		id := len(handles)
		at := e.Now() + delay()
		argK := k == 0
		var h Handle
		if argK {
			h = e.ScheduleArg(at, argFn, uint64(id))
		} else {
			h = e.Schedule(at, func() { onFire(id) })
		}
		handles = append(handles, h)
		laneOf = append(laneOf, -1)
		ref.schedule(at, id, argK)
	}
	cancelID := func(id int) {
		e.Cancel(handles[id])
		if i := ref.indexOf(id); i >= 0 {
			ref.removeAt(i)
		}
	}
	// cancelInLane cancels the head (mid false) or the middle entry of
	// the lane of delay d.
	cancelInLane := func(d int, mid bool) {
		var in []refEvent
		for _, ev := range ref.pending {
			if laneOf[ev.id] == d {
				in = append(in, ev)
			}
		}
		if len(in) == 0 {
			return
		}
		sort.Slice(in, func(i, j int) bool { return in[i].seq < in[j].seq })
		i := 0
		if mid {
			i = len(in) / 2
		}
		cancelID(in[i].id)
	}
	// cancel picks a victim: the current top, an event at the current
	// instant, any handle ever issued (possibly stale), the head or the
	// middle of a lane, any handle AfterFixed issued (possibly stale),
	// or the zero Handle.
	cancel := func() {
		switch k := rng.Intn(6); {
		case k == 3 && len(fixedIDs) > 0:
			cancelInLane(laneOf[fixedIDs[rng.Intn(len(fixedIDs))]], rng.Intn(2) == 0)
		case k == 4 && len(fixedIDs) > 0:
			cancelID(fixedIDs[rng.Intn(len(fixedIDs))])
		case k == 0:
			if i := ref.minIndex(); i >= 0 {
				cancelID(ref.pending[i].id)
			}
		case k == 1:
			for _, ev := range ref.pending {
				if ev.at == ref.now {
					cancelID(ev.id)
					break
				}
			}
		case k == 2 && len(handles) > 0:
			cancelID(rng.Intn(len(handles)))
		default:
			e.Cancel(Handle{})
		}
	}
	onFire = func(id int) {
		i := ref.minIndex()
		if i < 0 || ref.pending[i].id != id {
			failf("fired event %d, reference expected index %d of %v", id, i, ref.pending)
			return
		}
		ref.now = ref.pending[i].at
		ref.dispatched++
		ref.removeAt(i)
		fired++
		if e.Now() != ref.now {
			failf("event %d fired at %v, want %v", id, e.Now(), ref.now)
		}
		if handles[id].Scheduled() {
			failf("event %d still Scheduled inside its own callback", id)
		}
		for k := rng.Intn(4); k > 0; k-- {
			if rng.Intn(3) == 0 {
				cancel()
			} else {
				schedule()
			}
		}
	}

	for i := 0; i < 8+rng.Intn(24); i++ {
		schedule()
	}
	for step := 0; step < n && fail == nil; step++ {
		if step == n/2 {
			k := len(fixedDelays) - 1
			for i := 0; i < laneCap+laneCap/2; i++ {
				scheduleFixed(k)
				if i%3 == 1 {
					cancelID(len(handles) - 1)
				}
			}
			if l := e.lanes[e.laneFor(fixedDelays[k])]; len(l.ring) <= laneCap {
				failf("step %d: burst left the lane ring at %d entries", step, len(l.ring))
			}
		}
		if rng.Intn(5) == 0 {
			cancel()
		}
		if rng.Intn(7) == 0 || len(ref.pending) == 0 {
			schedule()
		}
		wantFired := min(len(ref.pending), 1)
		before := fired
		if stepped := e.Step(); stepped != (wantFired == 1) || fired-before != wantFired {
			failf("step %d: Step reported %v and fired %d events, want %d", step, stepped, fired-before, wantFired)
		}
		if got, want := e.Pending(), len(ref.pending); got != want {
			failf("step %d: Pending %d, want %d", step, got, want)
		}
		if got, want := e.FreeEvents(), ref.free(); got != want {
			failf("step %d: FreeEvents %d, want %d", step, got, want)
		}
		if got, want := e.Dispatched(), ref.dispatched; got != want {
			failf("step %d: Dispatched %d, want %d", step, got, want)
		}
		at, ok := e.NextAt()
		if i := ref.minIndex(); ok != (i >= 0) || (ok && at != ref.pending[i].at) {
			failf("step %d: NextAt (%v, %v) disagrees with the reference", step, at, ok)
		}
		live := make(map[int]bool, len(ref.pending))
		for _, ev := range ref.pending {
			live[ev.id] = true
		}
		for id, h := range handles {
			if h.Scheduled() != live[id] {
				failf("step %d: event %d Scheduled=%v", step, id, h.Scheduled())
				break
			}
		}
		var got bytes.Buffer
		d := checkpoint.NewDigest(&got)
		e.DigestState(d)
		d.Flush()
		if want := ref.digest(engSeed); !bytes.Equal(got.Bytes(), want) {
			failf("step %d: DigestState\n%s\nwant\n%s", step, got.Bytes(), want)
		}
	}
	return fail
}

// TestQueueMatchesReference checks the engine's event queue against the
// naive reference on random programs that schedule and cancel from
// inside callbacks.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		if err := queueProgram(seed, 300); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzQueueMatchesReference is TestQueueMatchesReference over fuzzed
// program seeds and lengths.
func FuzzQueueMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(50))
	f.Add(int64(42), uint16(400))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		if err := queueProgram(seed, int(n%2000)); err != nil {
			t.Fatal(err)
		}
	})
}

// cityOffsets returns 4096 reschedule offsets shaped like a dense
// city's queue: two thirds land within 10 µs and nearly all within
// 50 µs.
func cityOffsets() []time.Duration {
	rng := rand.New(rand.NewSource(1))
	offsets := make([]time.Duration, 4096)
	for i := range offsets {
		switch k := rng.Intn(100); {
		case k < 66:
			offsets[i] = time.Duration(rng.Intn(10_000))
		case k < 96:
			offsets[i] = 10*time.Microsecond + time.Duration(rng.Intn(40_000))
		default:
			offsets[i] = 50*time.Microsecond + time.Duration(rng.Intn(5_000_000))
		}
	}
	return offsets
}

// BenchmarkQueueStep measures one pop plus one push at a steady 420
// pending events, with the reschedule offsets of cityOffsets.
func BenchmarkQueueStep(b *testing.B) {
	const pending = 420
	offsets := cityOffsets()
	e := New(1)
	next := 0
	var fn func(uint64)
	fn = func(uint64) {
		e.AfterArg(offsets[next&(len(offsets)-1)], fn, 0)
		next++
	}
	for i := 0; i < pending; i++ {
		e.AfterArg(offsets[i], fn, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkQueueSlotTicks measures one fired event of a city-shaped
// queue: 300 nodes counting backoff slots of 9, 18 or 36 µs beside 120
// events rescheduled at cityOffsets. One tick in eight freezes another
// node's countdown and resumes it, which cancels and reschedules that
// node's tick. heap schedules the ticks with After, lane with
// AfterFixed; the firing order is the same.
func BenchmarkQueueSlotTicks(b *testing.B) {
	for _, bc := range []struct {
		name  string
		after func(e *Engine, d time.Duration, fn func()) Handle
	}{
		{"heap", (*Engine).After},
		{"lane", (*Engine).AfterFixed},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const nodes, others = 300, 120
			slots := [3]time.Duration{9 * time.Microsecond, 18 * time.Microsecond, 36 * time.Microsecond}
			offsets := cityOffsets()
			rng := rand.New(rand.NewSource(2))
			victims := make([]int, 4096) // a node index, or -1 for no freeze
			for i := range victims {
				victims[i] = -1
				if rng.Intn(8) == 0 {
					victims[i] = rng.Intn(nodes)
				}
			}
			e := New(1)
			ticks := make([]Handle, nodes)
			tickFns := make([]func(), nodes)
			next := 0
			for i := range tickFns {
				tickFns[i] = func() {
					ticks[i] = bc.after(e, slots[i%3], tickFns[i])
					if j := victims[next&(len(victims)-1)]; j >= 0 {
						e.Cancel(ticks[j])
						ticks[j] = bc.after(e, slots[j%3], tickFns[j])
					}
					next++
				}
				ticks[i] = bc.after(e, slots[i%3], tickFns[i])
			}
			var other func(uint64)
			other = func(uint64) {
				e.AfterArg(offsets[next&(len(offsets)-1)], other, 0)
				next++
			}
			for i := 0; i < others; i++ {
				e.AfterArg(offsets[i], other, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
