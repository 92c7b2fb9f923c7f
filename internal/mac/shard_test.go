package mac

import (
	"testing"
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// TestPlanShardsSplitsDistantClusters: two clusters far beyond
// interaction range land on different shards; nodes within a cluster
// stay together.
func TestPlanShardsSplitsDistantClusters(t *testing.T) {
	p := LogDistance{}
	r := InteractionRange(p, DefaultTxPowerDBm)
	if r <= 0 || r > 5000 {
		t.Fatalf("implausible interaction range %f m", r)
	}
	var pos []Position
	for i := 0; i < 4; i++ {
		pos = append(pos, Position{X: float64(i) * 10})
	}
	for i := 0; i < 4; i++ {
		pos = append(pos, Position{X: 3*r + float64(i)*10})
	}
	plan, ok := PlanShards(pos, DefaultTxPowerDBm, p, 2)
	if !ok || plan.Shards != 2 {
		t.Fatalf("plan = %+v ok=%v, want a clean 2-shard split", plan, ok)
	}
	for i := 1; i < 4; i++ {
		if plan.Assign[i] != plan.Assign[0] {
			t.Fatalf("cluster A split: %v", plan.Assign)
		}
		if plan.Assign[4+i] != plan.Assign[4] {
			t.Fatalf("cluster B split: %v", plan.Assign)
		}
	}
	if plan.Assign[0] == plan.Assign[4] {
		t.Fatalf("clusters share a shard: %v", plan.Assign)
	}
	if _, _, ok := VerifyPartition(pos, DefaultTxPowerDBm, p, plan.Assign); !ok {
		t.Fatal("VerifyPartition rejects PlanShards' own plan")
	}
}

// TestPlanShardsKeepsCoupledNodesTogether: a chain of nodes each
// within range of the next forms one component even when its ends are
// far apart — transitive closure, no splitting.
func TestPlanShardsKeepsCoupledNodesTogether(t *testing.T) {
	p := LogDistance{}
	r := InteractionRange(p, DefaultTxPowerDBm)
	var pos []Position
	for i := 0; i < 10; i++ {
		pos = append(pos, Position{X: float64(i) * r * 0.9})
	}
	plan, ok := PlanShards(pos, DefaultTxPowerDBm, p, 4)
	if ok || plan.Shards != 1 {
		t.Fatalf("chain world must fold to one shard, got %+v ok=%v", plan, ok)
	}
}

// TestPlanShardsUnboundedPropagation: a flat medium cannot shard.
func TestPlanShardsUnboundedPropagation(t *testing.T) {
	pos := []Position{{X: 0}, {X: 1e9}}
	plan, ok := PlanShards(pos, DefaultTxPowerDBm, FlatPropagation{}, 2)
	if ok || plan.Shards != 1 {
		t.Fatalf("flat world must refuse to shard, got %+v ok=%v", plan, ok)
	}
	if _, _, ok := VerifyPartition(pos, DefaultTxPowerDBm, FlatPropagation{}, []int{0, 1}); ok {
		t.Fatal("VerifyPartition accepted a split of an unbounded world")
	}
	if _, _, ok := VerifyPartition(pos, DefaultTxPowerDBm, FlatPropagation{}, []int{0, 0}); !ok {
		t.Fatal("VerifyPartition rejected the trivial one-group partition")
	}
}

// TestVerifyPartitionFindsBorderViolation: a proposed split with one
// cross-border pair inside interaction range is named exactly.
func TestVerifyPartitionFindsBorderViolation(t *testing.T) {
	p := LogDistance{}
	r := InteractionRange(p, DefaultTxPowerDBm)
	pos := []Position{{X: 0}, {X: 3 * r}, {X: 3*r - r*0.5}}
	i, j, ok := VerifyPartition(pos, DefaultTxPowerDBm, p, []int{0, 1, 0})
	if ok {
		t.Fatal("violation not detected")
	}
	if !(i == 1 && j == 2) {
		t.Fatalf("violating pair = (%d,%d), want (1,2)", i, j)
	}
}

// TestAirPruneClockHoldsHistory pins the sharded prune-horizon fix: an
// Air whose engine clock runs ahead must prune against the supplied
// shard floor, keeping history a lagging reader would still scan; the
// same Air without PruneClock discards it.
func TestAirPruneClockHoldsHistory(t *testing.T) {
	ch := spectrum.Chan(3, spectrum.W5)
	run := func(withClock bool) (early bool) {
		eng := sim.New(1)
		air := NewAir(eng)
		air.Retention = 100 * time.Millisecond
		floor := 50 * time.Millisecond // a lagging shard's clock
		if withClock {
			air.PruneClock = func() time.Duration { return floor }
		}
		// One early transmission, then enough traffic past the
		// watermark to trigger automatic pruning with the engine clock
		// far beyond floor+Retention.
		eng.Schedule(10*time.Millisecond, func() {
			air.Transmit(1, ch, phy.BeaconFrame(1, nil), DefaultTxPowerDBm, true)
		})
		for i := 0; i < 5000; i++ {
			at := 300*time.Millisecond + time.Duration(i)*time.Millisecond
			eng.Schedule(at, func() {
				air.Transmit(1, ch, phy.BeaconFrame(1, nil), DefaultTxPowerDBm, true)
			})
		}
		eng.RunUntil(6 * time.Second)
		// Does the early transmission survive? Scan its window.
		busy := air.BusyFractionAt(IdealObserver, ch.Center, 5*time.Millisecond, 20*time.Millisecond, nil)
		return busy > 0
	}
	if run(true) != true {
		t.Fatal("PruneClock-floored Air lost history the lagging floor still covers")
	}
	if run(false) != false {
		t.Fatal("control failed: serial prune should have discarded the early transmission")
	}
}
