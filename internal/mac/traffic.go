package mac

import (
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// CBR generates constant-bit-rate traffic from a node to a destination:
// one packet of Bytes payload every Interval, as used by the paper's
// background AP/client pairs (e.g. 30 ms inter-packet delay).
type CBR struct {
	Node     *Node
	Dst      int
	Bytes    int
	Interval time.Duration

	eng     *sim.Engine
	running bool
	ev      sim.Handle
	tickFn  func() // bound once so periodic rescheduling does not allocate
	Sent    int
}

// NewCBR creates a stopped CBR source; call Start to begin.
func NewCBR(eng *sim.Engine, n *Node, dst, bytes int, interval time.Duration) *CBR {
	c := &CBR{Node: n, Dst: dst, Bytes: bytes, Interval: interval, eng: eng}
	c.tickFn = c.tick
	return c
}

// Start begins generating packets, the first one immediately.
func (c *CBR) Start() {
	if c.running {
		return
	}
	c.running = true
	c.tick()
}

// Stop halts generation. Queued frames still drain.
func (c *CBR) Stop() {
	c.running = false
	c.eng.Cancel(c.ev)
	c.ev = sim.Handle{}
}

// Running reports whether the source is generating.
func (c *CBR) Running() bool { return c.running }

func (c *CBR) tick() {
	if !c.running {
		return
	}
	c.Node.Send(phy.DataFrame(c.Node.ID, c.Dst, c.Bytes))
	c.Sent++
	c.ev = c.eng.After(c.Interval, c.tickFn)
}

// Backlogged keeps a node's transmit queue non-empty, modelling the
// link-saturating UDP flows the paper's foreground AP/client pairs use.
type Backlogged struct {
	Node  *Node
	Dst   int
	Bytes int

	eng     *sim.Engine
	running bool
	ev      sim.Handle
	fillFn  func() // bound once so periodic rescheduling does not allocate
}

// NewBacklogged creates a stopped saturating source.
func NewBacklogged(eng *sim.Engine, n *Node, dst, bytes int) *Backlogged {
	b := &Backlogged{Node: n, Dst: dst, Bytes: bytes, eng: eng}
	b.fillFn = b.fill
	return b
}

// Start begins keeping the queue topped up.
func (b *Backlogged) Start() {
	if b.running {
		return
	}
	b.running = true
	b.fill()
}

// Stop halts the source.
func (b *Backlogged) Stop() {
	b.running = false
	b.eng.Cancel(b.ev)
	b.ev = sim.Handle{}
}

func (b *Backlogged) fill() {
	if !b.running {
		return
	}
	for b.Node.QueueLen() < 8 {
		// A down or full node rejects the frame without queueing it;
		// stop topping up until the next tick or the loop never exits.
		if !b.Node.Send(phy.DataFrame(b.Node.ID, b.Dst, b.Bytes)) {
			break
		}
	}
	// Top up at a cadence well below a frame time so the queue never
	// runs dry but event count stays bounded.
	b.ev = b.eng.After(500*time.Microsecond, b.fillFn)
}

// MarkovOnOff modulates a CBR source with the two-state Markov chain of
// Section 5.4.1's churn model: a node in the Active state transmits CBR
// traffic, a Passive node is silent. Transitions are evaluated every
// Epoch; PActive and PPassive are the probabilities of *leaving* the
// respective state at each epoch, so the mean dwell time in a state is
// Epoch/p.
type MarkovOnOff struct {
	Source *CBR
	// PStayActive is the per-epoch probability of remaining Active.
	PStayActive float64
	// PStayPassive is the per-epoch probability of remaining Passive.
	PStayPassive float64
	Epoch        time.Duration

	eng     *sim.Engine
	active  bool
	running bool
	ev      sim.Handle
	stepFn  func() // bound once so periodic rescheduling does not allocate
}

// NewMarkovOnOff wraps a CBR source with on/off churn. startActive sets
// the initial state.
func NewMarkovOnOff(eng *sim.Engine, src *CBR, pStayActive, pStayPassive float64, epoch time.Duration, startActive bool) *MarkovOnOff {
	m := &MarkovOnOff{
		Source:       src,
		PStayActive:  pStayActive,
		PStayPassive: pStayPassive,
		Epoch:        epoch,
		eng:          eng,
		active:       startActive,
	}
	m.stepFn = m.step
	return m
}

// Start begins the chain (and the CBR source if initially active).
func (m *MarkovOnOff) Start() {
	if m.running {
		return
	}
	m.running = true
	if m.active {
		m.Source.Start()
	}
	m.ev = m.eng.After(m.Epoch, m.stepFn)
}

// Stop halts both the chain and the source.
func (m *MarkovOnOff) Stop() {
	m.running = false
	m.eng.Cancel(m.ev)
	m.ev = sim.Handle{}
	m.Source.Stop()
}

// Active reports the current state.
func (m *MarkovOnOff) Active() bool { return m.active }

func (m *MarkovOnOff) step() {
	if !m.running {
		return
	}
	r := m.eng.Rand().Float64()
	if m.active {
		if r > m.PStayActive {
			m.active = false
			m.Source.Stop()
		}
	} else {
		if r > m.PStayPassive {
			m.active = true
			m.Source.Start()
		}
	}
	m.ev = m.eng.After(m.Epoch, m.stepFn)
}

// BackgroundPair is a background AP with one associated client running a
// CBR downlink flow on a fixed channel — the interfering traffic unit of
// Sections 5.4.1's simulations.
type BackgroundPair struct {
	AP, Client *Node
	Flow       *CBR
}

// NewBackgroundPair creates the pair on channel ch with the given CBR
// parameters and starts the flow.
func NewBackgroundPair(eng *sim.Engine, air *Air, apID, clientID int, ch spectrum.Channel, bytes int, interval time.Duration) *BackgroundPair {
	ap := NewNode(eng, air, apID, ch, true)
	cl := NewNode(eng, air, clientID, ch, false)
	flow := NewCBR(eng, ap, clientID, bytes, interval)
	flow.Start()
	return &BackgroundPair{AP: ap, Client: cl, Flow: flow}
}

// Stop halts the pair's traffic and detaches both nodes.
func (p *BackgroundPair) Stop() {
	p.Flow.Stop()
	p.AP.Detach()
	p.Client.Detach()
}
