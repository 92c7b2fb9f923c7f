// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per experiment (see DESIGN.md for the index and
// EXPERIMENTS.md for paper-vs-measured results). Each benchmark prints
// the regenerated table on its first iteration, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation; benchmark timings measure the cost of
// one full experiment run.
package whitefi

import (
	"fmt"
	"testing"
	"time"

	"whitefi/internal/exp"
	"whitefi/internal/traffic"
)

func BenchmarkSec21SpatialVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Sec21(5).String())
	}
}

func BenchmarkFig2Fragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Fig2().String())
	}
}

func BenchmarkSec23MicInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Sec23().String())
	}
}

func BenchmarkFig5TimeDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Fig5().String())
	}
}

func BenchmarkTable1SIFTDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Table1(3).String())
	}
}

func BenchmarkFig6Airtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Fig6(2).String())
	}
}

func BenchmarkFig7Attenuation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Fig7Table(2).String())
	}
}

func BenchmarkFig8Discovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Fig8Table(3, []int{1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 30}).String())
	}
}

func BenchmarkFig9DiscoveryLocales(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Fig9(10).String())
	}
}

func BenchmarkSec53Disconnection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Sec53(5).String())
	}
}

func BenchmarkFig10MCham(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Fig10Table(3).String())
	}
}

func BenchmarkFig11Background(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Fig11(3, []int{0, 4, 8, 12, 17, 24}).String())
	}
}

func BenchmarkFig12Spatial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Fig12(3, []float64{0, 0.01, 0.02, 0.05, 0.08, 0.10, 0.14}).String())
	}
}

func BenchmarkFig13Churn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Fig13(3).String())
	}
}

func BenchmarkFig14Adaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.Fig14Table(42).String())
	}
}

func BenchmarkDriveByMobility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.DriveByTable(2).String())
	}
}

func BenchmarkRoamingRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.RoamingTable(2).String())
	}
}

func BenchmarkMicChurnDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.MicChurnTable(2).String())
	}
}

func BenchmarkDenseCity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.DenseCityTable(1).String())
	}
}

// BenchmarkDenseCityMediumCulled isolates the air-medium fan-out cost
// at the 1000+-node scale (500 BSSs, 1500 nodes): a dense-city
// transmission load through the neighbor-culled medium, which pays
// O(neighbors) per transmission.
func BenchmarkDenseCityMediumCulled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.DenseCityMediumLoad(500, 5)
	}
}

func BenchmarkMixedTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.MixedTrafficTable(1).String())
	}
}

// BenchmarkMixedTrafficDenseCity is the traffic engine's scale
// benchmark: a 300-node city carrying all four flow models (30%
// uplink) through bounded AP egress queues, with per-flow quantile
// sketches streaming on every delivery.
func BenchmarkMixedTrafficDenseCity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.DenseCityRun(exp.DenseCityConfig{
			APs: 100, Seed: 5,
			Traffic: traffic.Models(), UplinkFrac: 0.3, QueueLimit: 128,
		})
	}
}

// BenchmarkFaultStorm runs the fault-injection storm sweep: seeded AP
// crash/restart cycles, scanner stalls, overload bursts and
// Gilbert–Elliott loss vs goodput retained, MTTR and p95 outage.
func BenchmarkFaultStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.FaultStormTable(1).String())
	}
}

func BenchmarkAblationSIFTWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.AblationSIFTWindow(3).String())
	}
}

func BenchmarkAblationMChamAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.AblationMChamAggregation(2).String())
	}
}

func BenchmarkAblationJSIFTEndgame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.AblationJSIFTEndgame(3).String())
	}
}

func BenchmarkAblationHysteresis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.AblationHysteresis(3).String())
	}
}

func BenchmarkAblationAPWeight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printish(i, exp.AblationAPWeight(100).String())
	}
}

// The AllocGate trio are reduced-scale versions of the three
// alloc-bound scenario benchmarks (DenseCity, Fig12, MixedTraffic),
// small enough for a CI smoke job. scripts/alloc_gate.sh runs them and
// fails on a >10% allocs/op regression against the committed
// scripts/alloc_gate_baseline.txt, so the zero-GC hot path (pooled
// events, transmission arena, struct-of-arrays medium log) cannot
// silently rot.
func BenchmarkAllocGateDenseCity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.DenseCityRun(exp.DenseCityConfig{APs: 50, Seed: 5})
	}
}

func BenchmarkAllocGateFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig12(1, []float64{0, 0.05})
	}
}

func BenchmarkAllocGateMixedTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.DenseCityRun(exp.DenseCityConfig{
			APs: 30, Seed: 5,
			Traffic: traffic.Models(), UplinkFrac: 0.3, QueueLimit: 128,
		})
	}
}

// The DenseCitySharded pair measures the parallel speedup of the
// sharded engine at the paper's city scale: a 1002-node (334 BSS)
// 30-second dense city tiled over 8 guard-spaced regions, run once on
// a single shard (the serial reference schedule) and once on 8 shards
// with a worker per shard. Both produce byte-identical digests (the
// shard-equivalence harness pins that); the ns/op ratio is pure
// wall-clock speedup.
func BenchmarkDenseCityShardedSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.DenseCityRun(denseCityShardedCfg(1))
	}
}

func BenchmarkDenseCitySharded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.DenseCityRun(denseCityShardedCfg(8))
	}
}

// denseCityShardedCfg is the 1002-node tiled city the sharded-engine
// speedup pair runs: 334 APs x (1 AP + 2 clients) over 8 tiles, 2 s
// settle + 28 s measure.
func denseCityShardedCfg(shards int) exp.DenseCityConfig {
	return exp.DenseCityConfig{
		APs: 334, Tiles: 8, Shards: shards, Seed: 5,
		Settle: 2 * time.Second, Measure: 28 * time.Second,
	}
}

// BenchmarkAllocGateShardedCity extends the alloc gate over the
// sharded hot path: per-shard queues, arenas and barrier rounds must
// stay amortized-zero like their serial counterparts.
func BenchmarkAllocGateShardedCity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.DenseCityRun(exp.DenseCityConfig{APs: 16, Tiles: 8, Shards: 8, Seed: 5})
	}
}

// printish prints the rendered table on the first iteration.
func printish(i int, s string) {
	if i == 0 {
		fmt.Println(s)
	}
}
