package mac

import (
	"math"
	"testing"
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

func ch20() spectrum.Channel { return spectrum.Chan(10, spectrum.W20) }
func ch5(c spectrum.UHF) spectrum.Channel {
	return spectrum.Chan(c, spectrum.W5)
}

func TestSingleExchangeDelivers(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, ch20(), true)
	b := NewNode(eng, air, 2, ch20(), false)
	var got []phy.Frame
	b.OnReceive = func(f phy.Frame, _ *Transmission) { got = append(got, f) }
	a.Send(phy.DataFrame(1, 2, 1000))
	eng.RunUntil(100 * time.Millisecond)
	if len(got) != 1 || got[0].Kind != phy.KindData {
		t.Fatalf("received %v", got)
	}
	if a.Stats.TxOK != 1 {
		t.Errorf("TxOK = %d, want 1 (ACK round trip)", a.Stats.TxOK)
	}
	if b.Stats.RxBytes != 1000 {
		t.Errorf("RxBytes = %d", b.Stats.RxBytes)
	}
}

func TestDifferentWidthNotDecoded(t *testing.T) {
	// Section 5.4: packets sent at a different channel width are dropped.
	eng := sim.New(1)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, spectrum.Chan(10, spectrum.W20), true)
	b := NewNode(eng, air, 2, spectrum.Chan(10, spectrum.W10), false)
	rx := 0
	b.OnReceive = func(phy.Frame, *Transmission) { rx++ }
	a.Send(phy.DataFrame(1, 2, 500))
	eng.RunUntil(time.Second)
	if rx != 0 {
		t.Error("frame decoded across widths")
	}
	if a.Stats.TxDropped != 1 {
		t.Errorf("sender should exhaust retries, dropped=%d", a.Stats.TxDropped)
	}
}

func TestDifferentCenterNotDecoded(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, ch5(4), true)
	b := NewNode(eng, air, 2, ch5(5), false)
	rx := 0
	b.OnReceive = func(phy.Frame, *Transmission) { rx++ }
	a.Send(phy.DataFrame(1, 2, 500))
	eng.RunUntil(time.Second)
	if rx != 0 {
		t.Error("frame decoded across center frequencies")
	}
}

func TestBroadcastReachesAllOnChannel(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, ch20(), true)
	rx := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		n := NewNode(eng, air, 10+i, ch20(), false)
		n.OnReceive = func(phy.Frame, *Transmission) { rx[i]++ }
	}
	other := NewNode(eng, air, 99, ch5(25), false)
	otherRx := 0
	other.OnReceive = func(phy.Frame, *Transmission) { otherRx++ }
	a.Send(phy.BeaconFrame(1, nil))
	eng.RunUntil(100 * time.Millisecond)
	for i, n := range rx {
		if n != 1 {
			t.Errorf("node %d rx = %d, want 1", i, n)
		}
	}
	if otherRx != 0 {
		t.Error("off-channel node received broadcast")
	}
}

func TestCollisionCorruptsAndRetries(t *testing.T) {
	// Two saturating senders on the same channel to the same receiver:
	// collisions must happen yet both eventually deliver via backoff.
	eng := sim.New(3)
	air := NewAir(eng)
	r := NewNode(eng, air, 9, ch20(), false)
	a := NewNode(eng, air, 1, ch20(), true)
	b := NewNode(eng, air, 2, ch20(), true)
	rx := 0
	r.OnReceive = func(phy.Frame, *Transmission) { rx++ }
	for i := 0; i < 30; i++ {
		a.Send(phy.DataFrame(1, 9, 800))
		b.Send(phy.DataFrame(2, 9, 800))
	}
	eng.RunUntil(3 * time.Second)
	if got := a.Stats.TxOK + b.Stats.TxOK; got != 60 {
		t.Errorf("delivered %d of 60", got)
	}
	if rx != 60 {
		t.Errorf("receiver saw %d, want 60", rx)
	}
}

func TestMultiChannelCarrierSense(t *testing.T) {
	// A 20 MHz node must defer to a 5 MHz transmission on any UHF
	// channel inside its span (the QualNet carrier-sense modification).
	eng := sim.New(1)
	air := NewAir(eng)
	narrowTx := NewNode(eng, air, 1, ch5(12), true) // inside 8..12
	narrowRx := NewNode(eng, air, 2, ch5(12), false)
	wide := NewNode(eng, air, 3, ch20(), true) // spans 8..12
	wideRx := NewNode(eng, air, 4, ch20(), false)

	// Keep the narrow channel ~always busy with a large frame.
	narrowTx.Send(phy.DataFrame(1, 2, 1400))
	eng.RunUntil(200 * time.Microsecond) // narrow frame now on air
	if !air.SensedBusy(3) {
		t.Fatal("wide node should sense the narrow transmission")
	}
	wide.Send(phy.DataFrame(3, 4, 200))
	// The wide transmission must not start until the narrow one is done.
	var overlap bool
	for _, tx := range air.History() {
		if tx.Src != 3 {
			continue
		}
		for _, o := range air.History() {
			if o.Src == 1 && o.overlapsTime(tx.Start, tx.End) {
				overlap = true
			}
		}
	}
	eng.RunUntil(time.Second)
	for _, tx := range air.History() {
		if tx.Src != 3 || tx.Frame.Kind != phy.KindData {
			continue
		}
		for _, o := range air.History() {
			if o.Src == 1 && o.Frame.Kind == phy.KindData && o.overlapsTime(tx.Start, tx.End) {
				overlap = true
			}
		}
	}
	if overlap {
		t.Error("wide node transmitted over a sensed narrow transmission")
	}
	if wideRx.Stats.RxData != 1 {
		t.Errorf("wide rx = %d, want 1", wideRx.Stats.RxData)
	}
	_ = narrowRx
}

func TestNonOverlappingChannelsDoNotDefer(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, ch5(2), true)
	ar := NewNode(eng, air, 2, ch5(2), false)
	b := NewNode(eng, air, 3, ch5(25), true)
	br := NewNode(eng, air, 4, ch5(25), false)
	_ = ar
	_ = br
	for i := 0; i < 10; i++ {
		a.Send(phy.DataFrame(1, 2, 1000))
		b.Send(phy.DataFrame(3, 4, 1000))
	}
	eng.RunUntil(time.Second)
	if a.Stats.TxOK != 10 || b.Stats.TxOK != 10 {
		t.Errorf("deliveries: %d, %d; want 10, 10", a.Stats.TxOK, b.Stats.TxOK)
	}
	// Throughput must not be halved: the flows are independent. Compare
	// busy fractions: channel 2 and channel 25 busy periods overlap.
	overlap := 0
	for _, tx := range air.History() {
		if tx.Src == 1 && tx.Frame.Kind == phy.KindData {
			for _, o := range air.History() {
				if o.Src == 3 && o.Frame.Kind == phy.KindData && o.overlapsTime(tx.Start, tx.End) {
					overlap++
				}
			}
		}
	}
	if overlap == 0 {
		t.Error("independent channels never transmitted concurrently; carrier sense too broad")
	}
}

func TestBusyFraction(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, ch5(4), true)
	b := NewNode(eng, air, 2, ch5(4), false)
	_ = b
	a.Send(phy.DataFrame(1, 2, 1000))
	eng.RunUntil(time.Second)
	bf := air.BusyFractionAt(IdealObserver, 4, 0, time.Second, nil)
	// One data frame + ACK at 5 MHz within a second.
	want := float64(phy.Airtime(spectrum.W5, 1000+phy.MACHeaderBytes)+phy.ACKAirtime(spectrum.W5)) / float64(time.Second)
	if diff := bf - want; diff < -0.001 || diff > 0.001 {
		t.Errorf("busy fraction = %v, want about %v", bf, want)
	}
	if air.BusyFractionAt(IdealObserver, 5, 0, time.Second, nil) != 0 {
		t.Error("adjacent channel should be idle")
	}
	if air.BusyFractionAt(IdealObserver, 4, 0, 0, nil) != 0 {
		t.Error("empty window should be 0")
	}
}

func TestBusyFractionMergesOverlaps(t *testing.T) {
	// Overlapping transmissions on one UHF channel must not double count.
	eng := sim.New(1)
	air := NewAir(eng)
	// Two raw transmissions forced to overlap (bypass DCF via Transmit).
	NewNode(eng, air, 1, ch5(4), false)
	NewNode(eng, air, 2, ch5(4), false)
	air.Transmit(1, ch5(4), phy.DataFrame(1, 99, 1000), DefaultTxPowerDBm, true)
	air.Transmit(2, ch5(4), phy.DataFrame(2, 99, 1000), DefaultTxPowerDBm, true)
	eng.RunUntil(time.Second)
	one := float64(phy.Airtime(spectrum.W5, 1000+phy.MACHeaderBytes)) / float64(time.Second)
	bf := air.BusyFractionAt(IdealObserver, 4, 0, time.Second, nil)
	if diff := bf - one; diff < -0.001 || diff > 0.001 {
		t.Errorf("busy fraction = %v, want %v (merged)", bf, one)
	}
}

func TestCBRGeneratesAtRate(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, ch20(), true)
	b := NewNode(eng, air, 2, ch20(), false)
	_ = b
	cbr := NewCBR(eng, a, 2, 500, 10*time.Millisecond)
	cbr.Start()
	eng.RunUntil(time.Second)
	cbr.Stop()
	if cbr.Sent < 99 || cbr.Sent > 101 {
		t.Errorf("sent %d packets in 1s at 10ms, want ~100", cbr.Sent)
	}
	eng.RunUntil(2 * time.Second)
	if got := cbr.Sent; got < 99 || got > 101 {
		t.Errorf("CBR kept sending after Stop: %d", got)
	}
}

func TestBackloggedSaturates(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, ch20(), true)
	b := NewNode(eng, air, 2, ch20(), false)
	_ = b
	src := NewBacklogged(eng, a, 2, 1000)
	src.Start()
	eng.RunUntil(2 * time.Second)
	src.Stop()
	// 6 Mbps PHY rate; with MAC overhead expect at least 60% goodput.
	goodput := float64(a.Stats.PayloadRxOK*8) / 2 // bits per second
	if goodput < 0.6*phy.Rate(spectrum.W20) {
		t.Errorf("saturated goodput = %.0f bps, want >= 60%% of 6 Mbps", goodput)
	}
	if goodput > phy.Rate(spectrum.W20) {
		t.Errorf("goodput above PHY rate: %.0f", goodput)
	}
}

func TestThroughputScalesWithWidth(t *testing.T) {
	// Aggregating channels improves throughput: the motivation for
	// variable widths (Section 2.2). Saturated goodput should be
	// roughly proportional to width.
	run := func(ch spectrum.Channel) float64 {
		eng := sim.New(42)
		air := NewAir(eng)
		a := NewNode(eng, air, 1, ch, true)
		b := NewNode(eng, air, 2, ch, false)
		_ = b
		src := NewBacklogged(eng, a, 2, 1000)
		src.Start()
		eng.RunUntil(2 * time.Second)
		return float64(a.Stats.PayloadRxOK*8) / 2
	}
	g5 := run(spectrum.Chan(10, spectrum.W5))
	g10 := run(spectrum.Chan(10, spectrum.W10))
	g20 := run(spectrum.Chan(10, spectrum.W20))
	if !(g5 < g10 && g10 < g20) {
		t.Fatalf("goodput not increasing with width: %v %v %v", g5, g10, g20)
	}
	if r := g20 / g5; r < 3.0 || r > 5.0 {
		t.Errorf("20MHz/5MHz goodput ratio = %.2f, want ~4", r)
	}
}

func TestMarkovOnOff(t *testing.T) {
	eng := sim.New(7)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, ch20(), true)
	NewNode(eng, air, 2, ch20(), false)
	cbr := NewCBR(eng, a, 2, 500, 5*time.Millisecond)
	m := NewMarkovOnOff(eng, cbr, 0.5, 0.5, 100*time.Millisecond, true)
	m.Start()
	eng.RunUntil(20 * time.Second)
	m.Stop()
	// With symmetric 0.5 stay probabilities the source should be active
	// roughly half the time: sent count well between always-on and off.
	alwaysOn := int(20 * time.Second / (5 * time.Millisecond))
	if cbr.Sent < alwaysOn/5 || cbr.Sent > alwaysOn*4/5 {
		t.Errorf("markov sent %d of max %d; expected roughly half", cbr.Sent, alwaysOn)
	}
}

func TestRetuneMovesTraffic(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, ch5(4), true)
	b := NewNode(eng, air, 2, ch5(4), false)
	a.Send(phy.DataFrame(1, 2, 500))
	eng.RunUntil(100 * time.Millisecond)
	if b.Stats.RxData != 1 {
		t.Fatal("pre-retune delivery failed")
	}
	a.Retune(ch5(20))
	b.Retune(ch5(20))
	a.Send(phy.DataFrame(1, 2, 500))
	eng.RunUntil(200 * time.Millisecond)
	if b.Stats.RxData != 2 {
		t.Errorf("post-retune rx = %d, want 2", b.Stats.RxData)
	}
	if a.Channel() != ch5(20) {
		t.Errorf("channel = %v", a.Channel())
	}
}

// constLoss attenuates every link by the same amount, whatever the
// distance. With no finite range bound it disables culling, so every
// fan-out walks all attached nodes.
type constLoss float64

func (c constLoss) LossDB(Position, Position) float64              { return float64(c) }
func (constLoss) MaxRangeFor(txPowerDBm, floorDBm float64) float64 { return math.Inf(1) }

func TestPathLossBlocksDelivery(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	air.Prop = constLoss(120) // way below noise
	a := NewNode(eng, air, 1, ch20(), true)
	b := NewNode(eng, air, 2, ch20(), false)
	rx := 0
	b.OnReceive = func(phy.Frame, *Transmission) { rx++ }
	a.Send(phy.DataFrame(1, 2, 500))
	eng.RunUntil(time.Second)
	if rx != 0 {
		t.Error("frame delivered through 120 dB attenuation")
	}
	if c := air.Counters; c.Delivered != 0 || c.BelowFloor == 0 {
		t.Errorf("counters %+v: want every attempt below the decode floor", c)
	}
}

func TestActiveAPs(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	p1 := NewBackgroundPair(eng, air, 1, 2, ch5(4), 500, 20*time.Millisecond)
	p2 := NewBackgroundPair(eng, air, 3, 4, ch5(4), 500, 20*time.Millisecond)
	p3 := NewBackgroundPair(eng, air, 5, 6, ch5(9), 500, 20*time.Millisecond)
	_ = p1
	_ = p2
	_ = p3
	eng.RunUntil(time.Second)
	if got := air.ActiveAPsAt(IdealObserver, 4, 0, time.Second, nil); got != 2 {
		t.Errorf("APs on channel 4 = %d, want 2", got)
	}
	if got := air.ActiveAPsAt(IdealObserver, 9, 0, time.Second, nil); got != 1 {
		t.Errorf("APs on channel 9 = %d, want 1", got)
	}
	if got := air.ActiveAPsAt(IdealObserver, 4, 0, time.Second, map[int]bool{1: true}); got != 1 {
		t.Errorf("APs excluding node 1 = %d, want 1", got)
	}
	if got := air.ActiveAPsAt(IdealObserver, 15, 0, time.Second, nil); got != 0 {
		t.Errorf("APs on idle channel = %d, want 0", got)
	}
}

func TestCompactBoundsHistory(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, ch20(), true)
	NewNode(eng, air, 2, ch20(), false)
	cbr := NewCBR(eng, a, 2, 500, time.Millisecond)
	cbr.Start()
	eng.RunUntil(time.Second)
	n := len(air.History())
	air.Prune(900 * time.Millisecond)
	if len(air.History()) >= n {
		t.Error("prune did not drop anything")
	}
	for _, tx := range air.History() {
		if tx.End < 900*time.Millisecond {
			t.Fatal("prune kept an old transmission")
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	eng := sim.New(1)
	air := NewAir(eng)
	a := NewNode(eng, air, 1, ch20(), true)
	ok := 0
	for i := 0; i < 600; i++ {
		if a.Send(phy.DataFrame(1, 2, 100)) {
			ok++
		}
	}
	if ok != 512 || a.Stats.QueueDropped != 88 {
		t.Errorf("accepted %d, dropped %d", ok, a.Stats.QueueDropped)
	}
}

func TestAirtimeConservation(t *testing.T) {
	// Busy fraction of any channel can never exceed 1.
	eng := sim.New(5)
	air := NewAir(eng)
	for i := 0; i < 4; i++ {
		p := NewBackgroundPair(eng, air, 100+2*i, 101+2*i, ch5(7), 1000, 2*time.Millisecond)
		_ = p
	}
	eng.RunUntil(2 * time.Second)
	bf := air.BusyFractionAt(IdealObserver, 7, 0, 2*time.Second, nil)
	if bf > 1.0 {
		t.Errorf("busy fraction %v > 1", bf)
	}
	if bf < 0.5 {
		t.Errorf("4 contending CBR pairs at 2ms should keep the channel mostly busy, got %v", bf)
	}
}
