package mac

import (
	"math/rand"
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// RetryLimit is the maximum number of retransmissions of a unicast frame
// before it is dropped.
const RetryLimit = 7

// Stats counts MAC-level outcomes at one node.
type Stats struct {
	TxData        int // data frames put on air (incl. retries)
	TxOK          int // unicast frames acknowledged
	TxDropped     int // unicast frames dropped after RetryLimit
	TxBroadcast   int // broadcast-style frames sent
	RxData        int // unicast data frames received clean
	RxBytes       int64
	RxFrames      int // all clean receptions, any kind
	AckTimeouts   int
	PayloadRxOK   int64 // payload bytes of acknowledged data (at sender)
	QueueDropped  int   // frames dropped due to full queue
	ShedDropped   int   // queued frames evicted by the shed policy
	LastRxAt      time.Duration
	LastTxOKAt    time.Duration
	DeliveredData int // data frames delivered to this node
}

// Node is a CSMA/CA transceiver attached to the Air medium and tuned to
// one WhiteFi channel. It implements an 802.11-DCF style listen-before-
// transmit MAC with binary-exponential backoff, per-width timing, and
// multi-channel carrier sense over its channel span.
type Node struct {
	ID    int
	IsAP  bool
	Power float64 // transmit power in dBm

	air *Air
	eng *sim.Engine
	an  *airNode

	channel spectrum.Channel

	// OnReceive is invoked for every clean reception addressed to the
	// node (or broadcast); ACKs are handled internally and not passed up.
	OnReceive func(phy.Frame, *Transmission)

	// OnSent is invoked when one of this node's frames finishes its
	// time on air (regardless of eventual ACK outcome). WhiteFi uses it
	// to chain the CTS-to-self one SIFS after each beacon.
	OnSent func(phy.Frame)

	queue    []phy.Frame
	maxQueue int
	shed     bool
	down     bool
	holdData bool

	state     dcfState
	cw        int
	rng       *rand.Rand // non-nil overrides the engine RNG for backoff draws (see SetRand)
	slotsLeft int
	retries   int
	seq       uint64
	// txGen invalidates events scheduled for transmissions that predate
	// the last Retune: a channel switch mid-transmission must not let
	// the old frame's end event mutate MAC state on the new channel.
	txGen uint64

	difsEv sim.Handle
	slotEv sim.Handle
	ackEv  sim.Handle
	// pending is the frame awaiting ACK (valid while hasPending); curTx
	// is the frame currently on air, read by the end-of-transmission
	// event. Both are values, not pointers: the DCF fires millions of
	// timer events per run, and value state plus the bound callbacks
	// below keep that hot path allocation-free.
	pending    phy.Frame
	hasPending bool
	curTx      phy.Frame

	// Callbacks bound once at construction so per-event scheduling does
	// not allocate a closure. The *Arg variants receive their per-event
	// word (a generation counter or a node id) through the scheduler.
	difsDoneFn   func()
	slotDoneFn   func()
	ackTimeoutFn func()
	kickGenFn    func(uint64)
	txEndGenFn   func(uint64)
	ackReplyFn   func(uint64)

	Stats Stats
}

type dcfState int

const (
	stIdle dcfState = iota
	stDeferring
	stDIFS
	stBackoff
	stTransmitting
	stAwaitingACK
)

// NewNode attaches a node to the medium on channel ch.
func NewNode(eng *sim.Engine, air *Air, id int, ch spectrum.Channel, isAP bool) *Node {
	n := &Node{
		ID:       id,
		IsAP:     isAP,
		Power:    DefaultTxPowerDBm,
		air:      air,
		eng:      eng,
		channel:  ch,
		cw:       phy.CWMin,
		maxQueue: 512,
	}
	n.difsDoneFn = n.difsDone
	n.slotDoneFn = n.slotDone
	n.ackTimeoutFn = n.ackTimeout
	n.kickGenFn = func(gen uint64) {
		if n.txGen == gen {
			n.kick()
		}
	}
	n.txEndGenFn = func(gen uint64) {
		if n.txGen == gen {
			n.txEnded(n.curTx)
		}
	}
	n.ackReplyFn = func(dst uint64) {
		n.air.Transmit(n.ID, n.channel, phy.ACKFrame(n.ID, int(dst)), n.Power, true)
	}
	n.an = air.attach(id, ch, isAP, n, n.receive)
	return n
}

// Detach removes the node from the medium and cancels pending MAC timers.
func (n *Node) Detach() {
	n.cancelTimers()
	n.air.detach(n.ID)
}

// Channel returns the channel the node is tuned to.
func (n *Node) Channel() spectrum.Channel { return n.channel }

// SetPosition places the node on the simulation plane. Under a spatial
// propagation model, carrier sense, delivery, and every scanner's view
// of this node's transmissions follow from the position.
func (n *Node) SetPosition(p Position) { n.air.SetPosition(n.ID, p) }

// Position returns the node's position on the plane.
func (n *Node) Position() Position { return n.air.PositionOf(n.ID) }

// Retune switches the node to a new channel. In-flight MAC state is
// reset: queued frames are kept, but any frame awaiting ACK is treated
// as failed-over (WhiteFi's protocols re-send state after a switch). A
// transmission still on air keeps its airtime on the old channel, but
// its end event is disowned: it no longer advances this node's MAC (the
// head-of-line frame is re-sent on the new channel instead), and medium
// access resumes only once the radio is done flushing it (half duplex).
func (n *Node) Retune(ch spectrum.Channel) {
	n.cancelTimers()
	n.txGen++
	n.pending = phy.Frame{}
	n.hasPending = false
	n.state = stIdle
	n.cw = phy.CWMin
	n.retries = 0
	n.air.retune(n.an, ch)
	n.channel = ch
	n.kick()
}

// QueueLen returns the number of frames waiting for transmission.
func (n *Node) QueueLen() int { return len(n.queue) }

// QueueLimit returns the egress queue bound.
func (n *Node) QueueLimit() int { return n.maxQueue }

// SetQueueLimit bounds the egress queue at limit frames; Send rejects
// (and Stats.QueueDropped counts) frames that arrive while the queue is
// full. Frames already queued beyond a lowered limit still drain. The
// default is 512; the traffic engine tightens it per AP so bursty load
// surfaces as measured drops instead of unbounded queueing delay.
func (n *Node) SetQueueLimit(limit int) {
	if limit < 1 {
		limit = 1
	}
	n.maxQueue = limit
}

// ClearQueue drops all queued frames (used on disconnection).
func (n *Node) ClearQueue() { n.queue = n.queue[:0] }

// SetShedding selects the egress-queue overflow policy. Off (the
// default) is the historical indiscriminate tail drop: a frame arriving
// at a full queue is rejected. On, the node degrades gracefully under
// overload with per-flow longest-queue-drop admission: the arriving
// frame displaces the oldest queued data frame of the flow hogging the
// queue (see shedFor), so one saturating flow cannot starve the others
// — or the control plane — of queue space.
func (n *Node) SetShedding(on bool) { n.shed = on }

// SetHoldData pauses data admission: while held, Send rejects KindData
// frames (counted in Stats.QueueDropped) while management and control
// frames pass. An AP camping on a backup channel to collect chirps
// holds its downlink — otherwise its own saturating data flows stomp
// the very chirps it is there to decode.
func (n *Node) SetHoldData(on bool) {
	n.holdData = on
	if !on {
		n.kick()
	}
}

// SetDown powers the radio off (true) or back on (false) — the fault
// model of a crashed node. A down radio rejects sends, drops its egress
// queue, abandons in-flight MAC state, and ignores all receptions
// (including ACKs, so peers see it exactly as absent), while staying
// attached to the medium so powering back on needs no re-registration.
// Powering on resumes from an idle MAC on the current channel.
func (n *Node) SetDown(down bool) {
	if n.down == down {
		return
	}
	n.down = down
	if down {
		n.cancelTimers()
		n.txGen++
		n.pending = phy.Frame{}
		n.hasPending = false
		n.ClearQueue()
		n.state = stIdle
		n.cw = phy.CWMin
		n.retries = 0
		return
	}
	n.kick()
}

// Down reports whether the radio is powered off (see SetDown).
func (n *Node) Down() bool { return n.down }

// shedFor tries to make room for f in a full queue by evicting the
// oldest queued data frame of the flow with the most queued data frames
// (a flow is a destination id, one downlink flow per client; ties
// broken toward the lower id, keeping the choice deterministic).
// Management frames are never evicted, and a data frame belonging to a
// largest flow itself is simply rejected — that sheds the same flow
// without queue surgery. The head-of-line frame is exempt while it is
// on air. Reports whether room was made.
func (n *Node) shedFor(f phy.Frame) bool {
	counts := map[int]int{}
	for i := range n.queue {
		if n.queue[i].Kind == phy.KindData {
			counts[n.queue[i].Dst]++
		}
	}
	if len(counts) == 0 {
		return false
	}
	victim, max := 0, -1
	for k, c := range counts {
		if c > max || (c == max && k < victim) {
			victim, max = k, c
		}
	}
	if f.Kind == phy.KindData && counts[f.Dst] >= max {
		return false
	}
	start := 0
	if n.state == stTransmitting || n.state == stAwaitingACK {
		start = 1
	}
	for i := start; i < len(n.queue); i++ {
		q := n.queue[i]
		if q.Kind == phy.KindData && q.Dst == victim {
			last := len(n.queue) - 1
			copy(n.queue[i:], n.queue[i+1:])
			n.queue[last] = phy.Frame{} // don't pin the evicted Meta
			n.queue = n.queue[:last]
			n.Stats.ShedDropped++
			return true
		}
	}
	return false
}

// SendImmediate puts a frame on the air right now without carrier sense
// or queuing — the SIFS-priority path used for the CTS-to-self that
// follows each beacon (Section 4.2.1).
func (n *Node) SendImmediate(f phy.Frame) *Transmission {
	if n.down {
		return nil
	}
	f.Src = n.ID
	f.Seq = n.seq
	n.seq++
	return n.air.Transmit(n.ID, n.channel, f, n.Power, true)
}

// Send enqueues a frame for CSMA/CA transmission. Frames are sent on the
// node's current channel at transmission time.
func (n *Node) Send(f phy.Frame) bool {
	if n.down || (n.holdData && f.Kind == phy.KindData) {
		n.Stats.QueueDropped++
		return false
	}
	if len(n.queue) >= n.maxQueue {
		if !n.shed || !n.shedFor(f) {
			n.Stats.QueueDropped++
			return false
		}
	}
	f.Src = n.ID
	f.Seq = n.seq
	n.seq++
	n.queue = append(n.queue, f)
	n.kick()
	return true
}

func (n *Node) cancelTimers() {
	n.eng.Cancel(n.difsEv)
	n.eng.Cancel(n.slotEv)
	n.eng.Cancel(n.ackEv)
	n.difsEv, n.slotEv, n.ackEv = sim.Handle{}, sim.Handle{}, sim.Handle{}
}

// kick starts medium acquisition if there is work and the MAC is idle.
// A half-duplex radio cannot acquire the medium while its own last
// frame is still draining (possible when a Retune interrupted a
// transmission): access is deferred to the frame's end.
func (n *Node) kick() {
	if n.down || n.state != stIdle || len(n.queue) == 0 {
		return
	}
	if until := n.an.txUntil; until > n.eng.Now() {
		n.eng.ScheduleArg(until, n.kickGenFn, n.txGen)
		return
	}
	n.beginAccess()
}

// SetRand makes the node draw its DCF backoff slots from r instead of
// the engine's shared random source. The shared source couples every
// node through global event order — reorder any two events anywhere
// and every subsequent backoff changes — which is fine on one engine
// but breaks shard-count invariance. Sharded scenarios pass each node
// its own stream (typically eng.RandFor(id)), making the node's
// backoff realisation a pure function of (seed, id, its own history).
// Nil (the default) keeps the legacy shared-source behavior and its
// byte-exact traces.
func (n *Node) SetRand(r *rand.Rand) { n.rng = r }

// beginAccess draws a fresh backoff and starts waiting for DIFS idle.
func (n *Node) beginAccess() {
	if n.rng != nil {
		n.slotsLeft = n.rng.Intn(n.cw + 1)
	} else {
		n.slotsLeft = n.eng.Rand().Intn(n.cw + 1)
	}
	n.startDIFS()
}

// startDIFS waits for the medium to be continuously idle for DIFS before
// the backoff countdown runs.
func (n *Node) startDIFS() {
	if n.air.sensedBusyAt(n.an.slot) {
		n.state = stDeferring
		return
	}
	n.state = stDIFS
	n.difsEv = n.eng.After(phy.DIFS(n.channel.Width), n.difsDoneFn)
}

func (n *Node) difsDone() {
	n.difsEv = sim.Handle{}
	if n.slotsLeft == 0 {
		n.transmitHead()
		return
	}
	n.state = stBackoff
	n.scheduleSlot()
}

func (n *Node) scheduleSlot() {
	n.slotEv = n.eng.AfterFixed(phy.Slot(n.channel.Width), n.slotDoneFn)
}

func (n *Node) slotDone() {
	n.slotEv = sim.Handle{}
	n.slotsLeft--
	if n.slotsLeft <= 0 {
		n.transmitHead()
		return
	}
	n.scheduleSlot()
}

// mediumBusyChanged implements carrierSenser: freeze/resume the backoff.
func (n *Node) mediumBusyChanged(busy bool) {
	if busy {
		switch n.state {
		case stDIFS:
			n.eng.Cancel(n.difsEv)
			n.difsEv = sim.Handle{}
			n.state = stDeferring
		case stBackoff:
			// The slot in progress did not complete idle: freeze.
			n.eng.Cancel(n.slotEv)
			n.slotEv = sim.Handle{}
			n.state = stDeferring
		}
		return
	}
	if n.state == stDeferring {
		n.startDIFS()
	}
}

func (n *Node) transmitHead() {
	if len(n.queue) == 0 {
		n.state = stIdle
		return
	}
	f := n.queue[0]
	n.state = stTransmitting
	tx := n.air.Transmit(n.ID, n.channel, f, n.Power, false)
	if f.Kind == phy.KindData {
		n.Stats.TxData++
	} else if !f.Kind.NeedsACK() {
		n.Stats.TxBroadcast++
	}
	n.curTx = f
	n.eng.ScheduleArg(tx.End, n.txEndGenFn, n.txGen)
}

func (n *Node) txEnded(f phy.Frame) {
	if n.OnSent != nil {
		n.OnSent(f)
	}
	if f.Kind.NeedsACK() && f.Dst != phy.Broadcast {
		n.state = stAwaitingACK
		n.pending = f
		n.hasPending = true
		timeout := phy.SIFS(n.channel.Width) + phy.ACKAirtime(n.channel.Width) + 2*phy.Slot(n.channel.Width)
		n.ackEv = n.eng.After(timeout, n.ackTimeoutFn)
		return
	}
	// Broadcast / unacknowledged frame: done.
	n.completeHead(true)
}

func (n *Node) ackTimeout() {
	n.ackEv = sim.Handle{}
	n.pending = phy.Frame{}
	n.hasPending = false
	n.Stats.AckTimeouts++
	n.retries++
	if n.retries > RetryLimit {
		n.Stats.TxDropped++
		n.completeHead(false)
		return
	}
	if n.cw < phy.CWMax {
		n.cw = 2*(n.cw+1) - 1
		if n.cw > phy.CWMax {
			n.cw = phy.CWMax
		}
	}
	n.state = stIdle
	n.beginAccess()
}

// completeHead finishes the head-of-line frame (acknowledged, broadcast
// complete, or dropped) and moves on.
func (n *Node) completeHead(ok bool) {
	if len(n.queue) > 0 {
		f := n.queue[0]
		// Dequeue by compacting in place rather than re-slicing from
		// index 1: re-slicing abandons the head of the backing array, so
		// with a typically short queue nearly every Send would have to
		// reallocate it. Compaction keeps the array (and its capacity)
		// stable for the node's lifetime. The vacated tail slot is
		// zeroed so it does not pin the frame's Meta payload.
		last := len(n.queue) - 1
		copy(n.queue, n.queue[1:])
		n.queue[last] = phy.Frame{}
		n.queue = n.queue[:last]
		if ok && f.Kind == phy.KindData && f.Dst != phy.Broadcast {
			n.Stats.TxOK++
			n.Stats.PayloadRxOK += int64(f.Bytes - phy.MACHeaderBytes)
			n.Stats.LastTxOKAt = n.eng.Now()
		}
	}
	n.cw = phy.CWMin
	n.retries = 0
	n.state = stIdle
	n.kick()
}

// receive handles a clean reception from the medium.
func (n *Node) receive(f phy.Frame, tx *Transmission) {
	if n.down {
		return
	}
	n.Stats.RxFrames++
	n.Stats.LastRxAt = n.eng.Now()
	switch {
	case f.Kind == phy.KindACK:
		if n.state == stAwaitingACK && n.hasPending && f.Src == n.pending.Dst {
			n.eng.Cancel(n.ackEv)
			n.ackEv = sim.Handle{}
			n.pending = phy.Frame{}
			n.hasPending = false
			n.completeHead(true)
		}
		return
	case f.Kind.NeedsACK() && f.Dst == n.ID:
		// Reply with an ACK one SIFS later, without carrier sense.
		n.eng.AfterArg(phy.SIFS(n.channel.Width), n.ackReplyFn, uint64(f.Src))
	}
	if f.Kind == phy.KindData {
		n.Stats.RxData++
		n.Stats.RxBytes += int64(f.Bytes - phy.MACHeaderBytes)
		n.Stats.DeliveredData++
	}
	if n.OnReceive != nil {
		n.OnReceive(f, tx)
	}
}
