package sim

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
)

// refEngineDigest is the fmt rendering that Engine.DigestState
// replaced, kept verbatim as the reference its bytes must equal.
func refEngineDigest(e *Engine, w io.Writer) {
	fmt.Fprintf(w, "sim now=%d seq=%d dispatched=%d pending=%d free=%d seed=%d\n",
		int64(e.now), e.seq, e.dispatched, e.Pending(), len(e.free), e.seed)
	evs := e.pendingSlots()
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

// refShardedDigest is the fmt rendering that ShardedEngine.DigestState
// replaced.
func refShardedDigest(s *ShardedEngine, w io.Writer) {
	fmt.Fprintf(w, "sharded shards=%d floor=%d\n", len(s.shards), int64(s.floor))
	refEngineDigest(s.global, w)
	for i, sh := range s.shards {
		fmt.Fprintf(w, "shard %d\n", i)
		refEngineDigest(sh, w)
	}
}

// digestText renders write through a checkpoint.Digest.
func digestText(write func(*checkpoint.Digest)) []byte {
	var b bytes.Buffer
	d := checkpoint.NewDigest(&b)
	write(d)
	d.Flush()
	return b.Bytes()
}

var digestEdgeInts = []int64{0, -1, 1, 100, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

func digestInt(r *rand.Rand) int64 {
	if r.Intn(2) == 0 {
		return digestEdgeInts[r.Intn(len(digestEdgeInts))]
	}
	return int64(r.Uint64()) >> r.Intn(64)
}

// loadEngine gives e random pending events (plain and argument
// callbacks, arguments up to MaxUint64, some rescheduling more work),
// random RNG stream ids, and some dispatched history.
func loadEngine(r *rand.Rand, e *Engine) {
	for k := r.Intn(30); k > 0; k-- {
		at := time.Duration(r.Int63n(int64(10 * time.Second)))
		switch r.Intn(4) {
		case 0:
			e.Schedule(at, func() { e.Schedule(e.Now()+time.Millisecond, func() {}) })
		case 1:
			e.Schedule(at, func() { e.AfterFixed(9*time.Microsecond, func() {}) })
		case 2:
			arg := r.Uint64()
			if r.Intn(3) == 0 {
				arg = math.MaxUint64
			}
			e.ScheduleArg(at, func(uint64) {}, arg)
		default:
			e.Schedule(at, func() {})
		}
	}
	for k := r.Intn(5); k > 0; k-- {
		e.RandFor(int(digestInt(r)))
	}
}

// TestEngineDigestMatchesFmt: engines with random queues, RNG streams
// and seeds render exactly the former fmt bytes, before and after
// dispatching part of their work.
func TestEngineDigestMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		e := New(digestInt(r))
		loadEngine(r, e)
		for step := 0; step < 2; step++ {
			var want bytes.Buffer
			refEngineDigest(e, &want)
			if got := digestText(e.DigestState); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("engine %d step %d:\n got %s\nwant %s", i, step, got, want.Bytes())
			}
			e.RunUntil(time.Duration(r.Int63n(int64(10 * time.Second))))
		}
	}
}

// TestShardedDigestMatchesFmt: a sharded engine renders the former fmt
// bytes — header, global engine, then each shard — before and after a
// barrier window.
func TestShardedDigestMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		s := NewSharded(digestInt(r), 1+r.Intn(3))
		loadEngine(r, s.Global())
		for k := 0; k < s.Shards(); k++ {
			loadEngine(r, s.Shard(k))
		}
		for step := 0; step < 2; step++ {
			var want bytes.Buffer
			refShardedDigest(s, &want)
			if got := digestText(s.DigestState); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("sharded %d step %d:\n got %s\nwant %s", i, step, got, want.Bytes())
			}
			s.RunUntil(time.Duration(r.Int63n(int64(10 * time.Second))))
		}
	}
}
