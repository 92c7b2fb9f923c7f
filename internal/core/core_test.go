package core

import (
	"testing"
	"time"

	"whitefi/internal/incumbent"
	"whitefi/internal/mac"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// build creates an engine, medium and a network with nClients clients.
// All nodes share the same base map and the given mics.
func build(seed int64, nClients int, base spectrum.Map, mics []*incumbent.Mic) (*sim.Engine, *mac.Air, *Network) {
	eng := sim.New(seed)
	air := mac.NewAir(eng)
	sensors := make([]*radio.IncumbentSensor, nClients+1)
	for i := range sensors {
		sensors[i] = &radio.IncumbentSensor{Base: base, Mics: mics}
	}
	n := NewNetwork(eng, air, Config{}, sensors)
	return eng, air, n
}

func TestInitialSelectionPicksWidest(t *testing.T) {
	eng, _, n := build(1, 0, incumbent.SimulationBaseMap(), nil)
	eng.RunUntil(time.Second)
	if got := n.AP.Channel().Width; got != spectrum.W20 {
		t.Errorf("initial width = %v, want 20MHz on quiet spectrum", got)
	}
	if !incumbent.SimulationBaseMap().ChannelFree(n.AP.Channel()) {
		t.Error("AP sits on an incumbent channel")
	}
}

func TestClientsAssociate(t *testing.T) {
	eng, _, n := build(2, 3, incumbent.SimulationBaseMap(), nil)
	eng.RunUntil(2 * time.Second)
	if got := len(n.AP.Clients()); got != 3 {
		t.Fatalf("associated clients = %d, want 3", got)
	}
	for _, c := range n.Clients {
		if !c.Associated() {
			t.Errorf("client %d not associated", c.ID)
		}
		if c.Channel() != n.AP.Channel() {
			t.Errorf("client %d on %v, AP on %v", c.ID, c.Channel(), n.AP.Channel())
		}
	}
}

func TestBackupChannelAdvertised(t *testing.T) {
	eng, _, n := build(3, 1, incumbent.SimulationBaseMap(), nil)
	eng.RunUntil(2 * time.Second)
	b := n.AP.Backup()
	if b.Width != spectrum.W5 {
		t.Errorf("backup = %v, want a 5MHz channel", b)
	}
	if b.Overlaps(n.AP.Channel()) {
		t.Errorf("backup %v overlaps main %v", b, n.AP.Channel())
	}
	if n.Clients[0].backup != b {
		t.Errorf("client learned backup %v, AP advertises %v", n.Clients[0].backup, b)
	}
}

func TestDownlinkDataFlows(t *testing.T) {
	eng, _, n := build(4, 2, incumbent.SimulationBaseMap(), nil)
	eng.RunUntil(2 * time.Second)
	n.StartDownlink(1000)
	before := n.GoodputBytes()
	eng.RunUntil(4 * time.Second)
	delta := n.GoodputBytes() - before
	bps := n.GoodputBps(delta, 2*time.Second)
	if bps < 1e6 {
		t.Errorf("aggregate goodput = %.0f bps, want > 1 Mbps on a 20MHz channel", bps)
	}
}

func TestClientObservationsReachAP(t *testing.T) {
	eng, _, n := build(5, 2, incumbent.SimulationBaseMap(), nil)
	eng.RunUntil(3 * time.Second)
	for _, cs := range n.AP.clients {
		if !cs.hasObs {
			t.Errorf("AP has no observation from client %d", cs.id)
		}
	}
}

func TestMicOnMainChannelForcesSwitch(t *testing.T) {
	eng := sim.New(6)
	air := mac.NewAir(eng)
	base := incumbent.SimulationBaseMap()
	mic := incumbent.NewMic(eng, 0) // placed later on the AP channel
	sensors := []*radio.IncumbentSensor{
		{Base: base, Mics: []*incumbent.Mic{mic}},
		{Base: base, Mics: []*incumbent.Mic{mic}},
	}
	n := NewNetwork(eng, air, Config{}, sensors)
	eng.RunUntil(2 * time.Second)
	old := n.AP.Channel()
	mic.Channel = old.Center
	mic.ScheduleOn(2500 * time.Millisecond)
	eng.RunUntil(10 * time.Second)
	now := n.AP.Channel()
	if now.Contains(mic.Channel) {
		t.Fatalf("AP still on mic channel: %v", now)
	}
	if n.Clients[0].Channel() != now {
		t.Errorf("client on %v, AP on %v after incumbent switch", n.Clients[0].Channel(), now)
	}
	found := false
	for _, s := range n.AP.Switches {
		if s.Reason == SwitchIncumbent {
			found = true
		}
	}
	if !found {
		t.Error("no incumbent switch recorded")
	}
}

func TestDisconnectionRecoveryUnder4Seconds(t *testing.T) {
	// Section 5.3: mic near the client only; the client vacates and
	// chirps; the AP scans the backup channel every 3 s, picks up the
	// chirp, reassigns — operational again within about 4 seconds.
	eng := sim.New(7)
	air := mac.NewAir(eng)
	base := incumbent.SimulationBaseMap()
	mic := incumbent.NewMic(eng, 0)
	apSensor := &radio.IncumbentSensor{Base: base} // AP cannot hear the mic
	clSensor := &radio.IncumbentSensor{Base: base, Mics: []*incumbent.Mic{mic}}
	n := NewNetwork(eng, air, Config{}, []*radio.IncumbentSensor{apSensor, clSensor})
	eng.RunUntil(2 * time.Second)
	n.StartDownlink(1000)
	eng.RunUntil(4 * time.Second)

	mic.Channel = n.AP.Channel().Center
	onAt := 4500 * time.Millisecond
	mic.ScheduleOn(onAt)
	eng.RunUntil(20 * time.Second)

	cl := n.Clients[0]
	if cl.Disconnects != 1 {
		t.Fatalf("client disconnects = %d, want 1", cl.Disconnects)
	}
	if cl.Reconnections < 1 {
		t.Fatal("client never reconnected")
	}
	if cl.Channel() != n.AP.Channel() {
		t.Fatalf("client on %v, AP on %v", cl.Channel(), n.AP.Channel())
	}
	// Find the reassignment switch and check the recovery lag.
	var switchAt time.Duration
	for _, s := range n.AP.Switches {
		if s.Reason == SwitchIncumbent && s.At > onAt {
			switchAt = s.At
			break
		}
	}
	if switchAt == 0 {
		t.Fatal("no incumbent reassignment recorded")
	}
	lag := switchAt - onAt
	if lag > 4*time.Second {
		t.Errorf("recovery lag = %v, want <= 4s (3s scan + assignment)", lag)
	}
}

func TestClientFallsBackOnMissedSwitch(t *testing.T) {
	// Force a disconnection the client cannot see coming: the AP hears
	// a mic (involuntary, no announcement on the old channel); the
	// client must time out on beacons and recover via the backup
	// channel (the footnote path of Section 4.1).
	eng := sim.New(8)
	air := mac.NewAir(eng)
	base := incumbent.SimulationBaseMap()
	mic := incumbent.NewMic(eng, 0)
	apSensor := &radio.IncumbentSensor{Base: base, Mics: []*incumbent.Mic{mic}}
	clSensor := &radio.IncumbentSensor{Base: base} // client can't hear the mic
	n := NewNetwork(eng, air, Config{}, []*radio.IncumbentSensor{apSensor, clSensor})
	eng.RunUntil(2 * time.Second)
	mic.Channel = n.AP.Channel().Center
	mic.ScheduleOn(2500 * time.Millisecond)
	eng.RunUntil(25 * time.Second)
	cl := n.Clients[0]
	if cl.Channel() != n.AP.Channel() {
		t.Fatalf("client on %v, AP on %v — never recovered", cl.Channel(), n.AP.Channel())
	}
	if !cl.Associated() {
		t.Error("client not associated after recovery")
	}
}

func TestVoluntarySwitchAwayFromBackground(t *testing.T) {
	// Heavy background traffic appears across the AP's 20 MHz channel;
	// the AP should voluntarily move to cleaner spectrum.
	eng := sim.New(9)
	air := mac.NewAir(eng)
	base := incumbent.BuildingFiveMap() // 20MHz + 10MHz + two 5MHz frags
	sensors := []*radio.IncumbentSensor{{Base: base}, {Base: base}}
	n := NewNetwork(eng, air, Config{}, sensors)
	eng.RunUntil(2 * time.Second)
	first := n.AP.Channel()
	if first.Width != spectrum.W20 {
		t.Fatalf("initial channel %v, want the 20MHz fragment", first)
	}
	n.StartDownlink(1000)

	// Flood channels 26-29 (indices of the 20MHz fragment) with four
	// background pairs at high intensity.
	var pairs []*mac.BackgroundPair
	lo, _ := first.Bounds()
	for i := 0; i < 4; i++ {
		u := lo + spectrum.UHF(i)
		p := mac.NewBackgroundPair(eng, air, 1000+2*i, 1001+2*i, spectrum.Chan(u, spectrum.W5), 1000, 3*time.Millisecond)
		pairs = append(pairs, p)
	}
	eng.RunUntil(30 * time.Second)
	if n.AP.Channel().Overlaps(first) {
		t.Errorf("AP stayed on flooded channel %v", n.AP.Channel())
	}
	for _, p := range pairs {
		p.Stop()
	}
}

func TestBeaconsCarrySSID(t *testing.T) {
	eng, air, n := build(10, 0, incumbent.SimulationBaseMap(), nil)
	eng.RunUntil(time.Second)
	found := false
	for _, tx := range air.History() {
		if tx.Frame.Kind != 2 { // phy.KindBeacon
			continue
		}
		if m, ok := tx.Frame.Meta.(BeaconMeta); ok {
			if m.SSID != "whitefi" || m.Channel != n.AP.Channel() {
				t.Errorf("beacon meta = %+v", m)
			}
			found = true
		}
	}
	if !found {
		t.Error("no beacons on air")
	}
}

func TestStopHaltsEverything(t *testing.T) {
	eng, air, n := build(12, 1, incumbent.SimulationBaseMap(), nil)
	eng.RunUntil(2 * time.Second)
	n.Stop()
	count := len(air.History())
	eng.RunUntil(5 * time.Second)
	// The MAC may flush frames already queued, but periodic protocol
	// activity (beacons every 100ms) must have ceased.
	grown := len(air.History()) - count
	if grown > 10 {
		t.Errorf("network still chatty after Stop: %d new transmissions", grown)
	}
}
