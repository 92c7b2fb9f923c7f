package core

import (
	"time"

	"whitefi/internal/mac"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
	"whitefi/internal/traffic"
)

// Network wires a complete WhiteFi BSS — one AP and its clients — plus
// saturating downlink flows, for experiments and examples.
type Network struct {
	Eng     *sim.Engine
	Air     *mac.Air
	AP      *AP
	Clients []*Client

	// Flows holds the generated traffic flows attached by StartTraffic
	// (nil when StartDownlink's saturating legacy flows are used).
	Flows []*traffic.Flow

	flows []*mac.Backlogged
}

// NewNetwork builds an AP with one sensor per node. Sensor index 0 is
// the AP's; the remaining sensors create one client each.
func NewNetwork(eng *sim.Engine, air *mac.Air, cfg Config, sensors []*radio.IncumbentSensor) *Network {
	if len(sensors) == 0 {
		panic("core: NewNetwork needs at least the AP sensor")
	}
	n := &Network{Eng: eng, Air: air}
	n.AP = NewAP(eng, air, cfg.IDBase+1, cfg, sensors[0])
	for i, s := range sensors[1:] {
		c := NewClient(eng, air, cfg.IDBase+100+i, cfg, s, n.AP)
		n.Clients = append(n.Clients, c)
	}
	return n
}

// StartDownlink attaches a saturating downlink flow from the AP to every
// client, with frames of the given payload size.
func (n *Network) StartDownlink(payloadBytes int) {
	for _, c := range n.Clients {
		f := mac.NewBacklogged(n.Eng, n.AP.Node, c.ID, payloadBytes)
		f.Start()
		n.flows = append(n.flows, f)
	}
}

// StartTraffic attaches one generated flow per client: spec i drives
// client i (specs cycle when there are more clients). Downlink flows
// run AP -> client, uplink flows client -> AP, and Web flows serve
// pages from the AP to the requesting client regardless of Uplink.
// queueLimit, when positive, bounds the AP's egress queue so overload
// surfaces as counted per-flow drops instead of unbounded queueing.
// The flows (with their telemetry) are returned and retained in Flows.
func (n *Network) StartTraffic(specs []traffic.Spec, queueLimit int) []*traffic.Flow {
	if len(specs) == 0 {
		return nil
	}
	if queueLimit > 0 {
		n.AP.Node.SetQueueLimit(queueLimit)
	}
	for i, c := range n.Clients {
		spec := specs[i%len(specs)]
		sender, receiver := traffic.Orient(spec, n.AP.Node, c.Node)
		f := traffic.NewFlow(n.Eng, i, spec, sender, receiver)
		f.Start()
		n.Flows = append(n.Flows, f)
	}
	return n.Flows
}

// StopTraffic halts all attached flows.
func (n *Network) StopTraffic() {
	for _, f := range n.flows {
		f.Stop()
	}
	for _, f := range n.Flows {
		f.Stop()
	}
}

// Stop halts the whole network.
func (n *Network) Stop() {
	n.StopTraffic()
	n.AP.Stop()
	for _, c := range n.Clients {
		c.Stop()
	}
}

// GoodputBps returns the aggregate acknowledged downlink payload rate in
// bits per second over [from, to], using cumulative AP counters sampled
// by the caller via GoodputBytes.
func (n *Network) GoodputBps(bytesDelta int64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(bytesDelta*8) / window.Seconds()
}

// GoodputBytes returns cumulative acknowledged downlink payload bytes.
func (n *Network) GoodputBytes() int64 { return n.AP.Node.Stats.PayloadRxOK }
