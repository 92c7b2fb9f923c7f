package mac

import (
	"slices"
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// medium is the surface the randomized test worlds drive (see
// worldEvents): the production Air, through airMedium, or refAir.
type medium interface {
	SetPosition(id int, p Position)
	Transmit(id int, ch spectrum.Channel, f phy.Frame, powerDBm float64, noCS bool) *Transmission
	attachNode(id int, ch spectrum.Channel, isAP bool, s carrierSenser, deliver func(phy.Frame, *Transmission))
	detach(id int)
	retuneNode(id int, ch spectrum.Channel) // no-op unless id is attached
	counters() AirCounters
}

// airMedium adapts the production Air to medium.
type airMedium struct{ *Air }

func (m airMedium) attachNode(id int, ch spectrum.Channel, isAP bool, s carrierSenser, deliver func(phy.Frame, *Transmission)) {
	m.attach(id, ch, isAP, s, deliver)
}

func (m airMedium) retuneNode(id int, ch spectrum.Channel) {
	if n := m.node(id); n != nil {
		m.retune(n, ch)
	}
}

func (m airMedium) counters() AirCounters { return m.Counters }

// refAir is the reference medium: a deliberately naive statement of
// Air's carrier-sense and delivery rules with none of its machinery —
// no transmission arena, spatial grid, per-center log partitions, range
// bounds or pair-loss cache. Every fan-out walks all attached nodes in
// ascending id, every interference check scans the whole history, and
// every received power is one Propagation.LossDB call. Air must produce
// exactly the same ordered events as refAir on any world; a fault in
// its culling, pooling or indexing shows up as a divergence.
//
// refAir encodes today's rules as they are, quirks included:
//   - a node's half-duplex horizon is the End of the latest transmission
//     it launched while attached; attach always starts a fresh node, so a
//     re-attach resets it;
//   - attach re-derives the node's membership in every in-flight
//     transmission's pinned sensed set without a busy notification, and
//     detach drops it from every set, also silently; retune re-derives
//     it too, and notifies only when the node's busy state flips;
//   - a launch from an id that is not attached still raises carrier
//     sense at every node that hears it;
//   - an interferer is any other transmission, not from the receiver
//     itself, that overlaps the frame in time and the receiver's span
//     and arrives at or above the noise floor.
type refAir struct {
	eng *sim.Engine
	// prop and dropFilter play the roles of Air.Prop and Air.DropFilter.
	prop       Propagation
	dropFilter func(f phy.Frame, src, dst int) bool

	nodes   map[int]*refNode
	pos     map[int]Position
	history []Transmission
	active  []*refActive
	nextUID uint64
	count   AirCounters
}

type refNode struct {
	id        int
	ch        spectrum.Channel
	senser    carrierSenser
	deliver   func(phy.Frame, *Transmission)
	sensedCnt int
	txUntil   time.Duration
}

// refActive is one in-flight transmission and the ids whose carrier
// sense it holds busy.
type refActive struct {
	tx     *Transmission
	sensed map[int]bool
}

func newRefAir(eng *sim.Engine, prop Propagation) *refAir {
	return &refAir{eng: eng, prop: prop, nodes: map[int]*refNode{}, pos: map[int]Position{}}
}

func (r *refAir) counters() AirCounters { return r.count }

func (r *refAir) SetPosition(id int, p Position) { r.pos[id] = p }

// rxPower is the power at which dst, where it stands now, hears tx from
// where its source stood at launch.
func (r *refAir) rxPower(tx *Transmission, dst int) float64 {
	if r.prop == nil {
		return tx.PowerDB
	}
	return tx.PowerDB - r.prop.LossDB(tx.SrcPos, r.pos[dst])
}

func (r *refAir) hears(n *refNode, tx *Transmission) bool {
	return n.ch.Overlaps(tx.Channel) && r.rxPower(tx, n.id) >= DefaultCSThresholdDBm
}

// ids returns the attached node ids in ascending order.
func (r *refAir) ids() []int {
	ids := make([]int, 0, len(r.nodes))
	for id := range r.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (r *refAir) attachNode(id int, ch spectrum.Channel, isAP bool, s carrierSenser, deliver func(phy.Frame, *Transmission)) {
	n := &refNode{id: id, ch: ch, senser: s, deliver: deliver}
	r.nodes[id] = n
	r.resense(n)
}

func (r *refAir) retuneNode(id int, ch spectrum.Channel) {
	n := r.nodes[id]
	if n == nil {
		return
	}
	was := n.sensedCnt > 0
	n.ch = ch
	r.resense(n)
	if now := n.sensedCnt > 0; now != was && n.senser != nil {
		n.senser.mediumBusyChanged(now)
	}
}

// resense re-derives n's membership in every in-flight transmission's
// sensed set, where n stands now and on its current channel, and
// recounts n.sensedCnt.
func (r *refAir) resense(n *refNode) {
	n.sensedCnt = 0
	for _, e := range r.active {
		if e.tx.Src == n.id {
			continue
		}
		if r.hears(n, e.tx) {
			e.sensed[n.id] = true
			n.sensedCnt++
		} else {
			delete(e.sensed, n.id)
		}
	}
}

func (r *refAir) detach(id int) {
	delete(r.nodes, id)
	for _, e := range r.active {
		delete(e.sensed, id)
	}
}

func (r *refAir) Transmit(id int, ch spectrum.Channel, f phy.Frame, powerDBm float64, noCS bool) *Transmission {
	now := r.eng.Now()
	r.nextUID++
	r.count.Launches++
	tx := &Transmission{
		Src: id, Channel: ch, Frame: f,
		Start: now, End: now + f.Airtime(ch.Width),
		PowerDB: powerDBm, NoCS: noCS, UID: r.nextUID, SrcPos: r.pos[id],
	}
	r.history = append(r.history, *tx)
	if n := r.nodes[id]; n != nil {
		n.txUntil = tx.End
	}
	e := &refActive{tx: tx, sensed: map[int]bool{}}
	for _, nid := range r.ids() {
		n := r.nodes[nid]
		if nid == id || !r.hears(n, tx) {
			continue
		}
		e.sensed[nid] = true
		n.sensedCnt++
		if n.sensedCnt == 1 && n.senser != nil {
			n.senser.mediumBusyChanged(true)
		}
	}
	r.active = append(r.active, e)
	r.eng.Schedule(tx.End, func() { r.finish(e) })
	return tx
}

// finish releases e's sensed set in ascending id, then offers the frame
// to every attached node in ascending id.
func (r *refAir) finish(e *refActive) {
	r.active = slices.DeleteFunc(r.active, func(x *refActive) bool { return x == e })
	sensed := make([]int, 0, len(e.sensed))
	for id := range e.sensed {
		sensed = append(sensed, id)
	}
	slices.Sort(sensed)
	for _, id := range sensed {
		n := r.nodes[id]
		if n == nil {
			continue
		}
		n.sensedCnt--
		if n.sensedCnt == 0 && n.senser != nil {
			n.senser.mediumBusyChanged(false)
		}
	}
	tx := e.tx
	for _, id := range r.ids() {
		n := r.nodes[id]
		if n == nil || id == tx.Src || n.deliver == nil || n.ch != tx.Channel {
			continue
		}
		if tx.Frame.Dst != phy.Broadcast && tx.Frame.Dst != id {
			continue
		}
		if !r.cleanAt(n, tx) {
			continue
		}
		if r.dropFilter != nil && r.dropFilter(tx.Frame, tx.Src, id) {
			r.count.FilterDrops++
			continue
		}
		r.count.Delivered++
		n.deliver(tx.Frame, tx)
	}
}

// cleanAt applies the decode rule at receiver n: above the decode SNR,
// not transmitting itself, and no interferer anywhere in the history.
func (r *refAir) cleanAt(n *refNode, tx *Transmission) bool {
	if r.rxPower(tx, n.id)-NoiseFloorDBm < decodeSNRdB {
		r.count.BelowFloor++
		return false
	}
	if n.txUntil > tx.Start {
		r.count.HalfDuplex++
		return false
	}
	for i := range r.history {
		h := &r.history[i]
		if h.UID == tx.UID || h.Src == n.id || !h.overlapsTime(tx.Start, tx.End) || !n.ch.Overlaps(h.Channel) {
			continue
		}
		if r.rxPower(h, n.id) >= NoiseFloorDBm {
			r.count.Collisions++
			return false
		}
	}
	return true
}
