package mac

import (
	"math/rand"
	"testing"
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// scatterTransmissions records n raw transmissions at random channels
// and times across horizon, bypassing CSMA (Transmit resolves busy
// state; that is irrelevant to the log index under test).
func scatterTransmissions(air *Air, eng *sim.Engine, n int, horizon time.Duration, rng *rand.Rand) {
	interval := horizon / time.Duration(n)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * interval
		eng.Schedule(at, func() {
			w := spectrum.Widths[rng.Intn(len(spectrum.Widths))]
			half := spectrum.UHF(w.Span() / 2)
			u := half + spectrum.UHF(rng.Intn(int(spectrum.NumUHF-2*half)))
			air.Transmit(1+rng.Intn(5), spectrum.Chan(u, w),
				phy.DataFrame(1, 2, 100+rng.Intn(1400)), DefaultTxPowerDBm, true)
		})
	}
	// Run past the horizon far enough that every scattered frame has
	// finished its airtime.
	eng.RunUntil(horizon + 50*time.Millisecond)
}

// containing materializes collectContaining's indices: the partitioned
// per-channel window query behind BusyFractionAt and ActiveAPsAt.
func containing(air *Air, u spectrum.UHF, from, to time.Duration) []Transmission {
	var out []Transmission
	for _, i := range air.collectContaining(u, from, to) {
		var tx Transmission
		air.materialize(i, &tx)
		out = append(out, tx)
	}
	return out
}

// windowWalk is the all-channel window walk ObservationAt makes: a
// binary search (searchStart, backed off by the maxDur look-behind) to
// the first transmission that can still be on air at from, then a
// forward scan until starts reach to.
func windowWalk(air *Air, from, to time.Duration) []Transmission {
	var out []Transmission
	for i := air.searchStart(from - air.maxDur); i < air.logLen() && air.logStart[i] < to; i++ {
		if air.logEnd[i] > from {
			var tx Transmission
			air.materialize(int32(i), &tx)
			out = append(out, tx)
		}
	}
	return out
}

// bruteOverlapping is the seed implementation: a full-history scan.
func bruteOverlapping(air *Air, u spectrum.UHF, from, to time.Duration) []Transmission {
	var out []Transmission
	for _, tx := range air.History() {
		if tx.overlapsTime(from, to) && tx.Channel.Contains(u) {
			out = append(out, tx)
		}
	}
	return out
}

func sameTransmissions(a, b []Transmission) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].UID != b[i].UID {
			return false
		}
	}
	return true
}

// TestOverlappingMatchesBruteForce checks the per-channel window query
// (collectContaining) against a full-history scan.
func TestOverlappingMatchesBruteForce(t *testing.T) {
	eng := sim.New(7)
	air := NewAir(eng)
	rng := rand.New(rand.NewSource(7))
	scatterTransmissions(air, eng, 500, 5*time.Second, rng)
	for trial := 0; trial < 200; trial++ {
		u := spectrum.UHF(rng.Intn(spectrum.NumUHF))
		from := time.Duration(rng.Int63n(int64(5 * time.Second)))
		to := from + time.Duration(rng.Int63n(int64(500*time.Millisecond)))
		got := containing(air, u, from, to)
		want := bruteOverlapping(air, u, from, to)
		if !sameTransmissions(got, want) {
			t.Fatalf("u=%v [%v,%v): got %d txs, want %d", u, from, to, len(got), len(want))
		}
	}
}

// TestHistoryOverlappingMatchesBruteForce checks the all-channel
// window walk (searchStart plus the maxDur look-behind) against a
// full-history scan.
func TestHistoryOverlappingMatchesBruteForce(t *testing.T) {
	eng := sim.New(8)
	air := NewAir(eng)
	rng := rand.New(rand.NewSource(8))
	scatterTransmissions(air, eng, 400, 4*time.Second, rng)
	for trial := 0; trial < 100; trial++ {
		from := time.Duration(rng.Int63n(int64(4 * time.Second)))
		to := from + time.Duration(rng.Int63n(int64(time.Second)))
		got := windowWalk(air, from, to)
		var want []Transmission
		for _, tx := range air.History() {
			if tx.overlapsTime(from, to) {
				want = append(want, tx)
			}
		}
		if !sameTransmissions(got, want) {
			t.Fatalf("[%v,%v): got %d txs, want %d", from, to, len(got), len(want))
		}
	}
}

func TestForEachCenterOverlapping(t *testing.T) {
	eng := sim.New(9)
	air := NewAir(eng)
	rng := rand.New(rand.NewSource(9))
	scatterTransmissions(air, eng, 300, 3*time.Second, rng)
	for trial := 0; trial < 100; trial++ {
		u := spectrum.UHF(rng.Intn(spectrum.NumUHF))
		from := time.Duration(rng.Int63n(int64(3 * time.Second)))
		to := from + time.Duration(rng.Int63n(int64(time.Second)))
		var got []Transmission
		air.ForEachCenterOverlapping(u, from, to, func(tx *Transmission) {
			got = append(got, *tx)
		})
		var want []Transmission
		for _, tx := range air.History() {
			if tx.overlapsTime(from, to) && tx.Channel.Center == u {
				want = append(want, tx)
			}
		}
		if !sameTransmissions(got, want) {
			t.Fatalf("center %v [%v,%v): got %d txs, want %d", u, from, to, len(got), len(want))
		}
	}
}

func TestPruneKeepsWindowQueriesCorrect(t *testing.T) {
	eng := sim.New(10)
	air := NewAir(eng)
	rng := rand.New(rand.NewSource(10))
	scatterTransmissions(air, eng, 400, 4*time.Second, rng)
	before := len(air.History())
	air.Prune(2 * time.Second)
	if got := len(air.History()); got >= before {
		t.Fatalf("prune kept %d of %d transmissions", got, before)
	}
	for _, tx := range air.History() {
		if tx.End < 2*time.Second {
			t.Fatalf("pruned log still holds tx ending at %v", tx.End)
		}
	}
	// Post-prune windowed queries still agree with brute force: the
	// rebuilt partitions, reach and maxDur must cover what survived.
	for trial := 0; trial < 100; trial++ {
		u := spectrum.UHF(rng.Intn(spectrum.NumUHF))
		from := 2*time.Second + time.Duration(rng.Int63n(int64(2*time.Second)))
		to := from + time.Duration(rng.Int63n(int64(500*time.Millisecond)))
		if !sameTransmissions(containing(air, u, from, to), bruteOverlapping(air, u, from, to)) {
			t.Fatalf("post-prune mismatch at u=%v [%v,%v)", u, from, to)
		}
		var want []Transmission
		for _, tx := range air.History() {
			if tx.overlapsTime(from, to) {
				want = append(want, tx)
			}
		}
		if !sameTransmissions(windowWalk(air, from, to), want) {
			t.Fatalf("post-prune window walk mismatch at [%v,%v)", from, to)
		}
	}
}

func TestRetentionBoundsLog(t *testing.T) {
	eng := sim.New(11)
	air := NewAir(eng)
	air.Retention = 500 * time.Millisecond
	rng := rand.New(rand.NewSource(11))
	scatterTransmissions(air, eng, 5000, 20*time.Second, rng)
	// With a 500ms horizon the log must stay far below the full 5000.
	// (Automatic pruning runs at a growth watermark, not per append, so
	// entries older than Retention may linger until the next prune; the
	// bound is on memory, not on per-entry age.)
	if got := len(air.History()); got > 2500 {
		t.Fatalf("retention left %d transmissions in the log", got)
	}
	air.Prune(eng.Now() - air.Retention)
	for _, tx := range air.History() {
		if tx.End < eng.Now()-air.Retention {
			t.Fatalf("explicit prune failed to drop tx ending at %v (now %v)", tx.End, eng.Now())
		}
	}
}

// BenchmarkWindowQueryPreHistory shows the windowed query is
// O(transmissions overlapping the window): growing the pre-history 10x
// must leave per-window cost flat.
func BenchmarkWindowQueryPreHistory(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		name := "1x"
		if n == 20000 {
			name = "10x"
		}
		b.Run(name, func(b *testing.B) {
			eng := sim.New(12)
			air := NewAir(eng)
			rng := rand.New(rand.NewSource(12))
			horizon := time.Duration(n) * 2 * time.Millisecond
			scatterTransmissions(air, eng, n, horizon, rng)
			from := horizon - 250*time.Millisecond
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := spectrum.UHF(0); u < spectrum.NumUHF; u++ {
					air.BusyFractionAt(IdealObserver, u, from, horizon, nil)
				}
			}
		})
	}
}
