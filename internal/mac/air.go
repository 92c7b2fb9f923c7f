package mac

import (
	"slices"
	"sort"
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// Default radio parameters.
const (
	// DefaultTxPowerDBm is the transmit power used by all nodes. The
	// FCC cap for portable white-space devices is 40 mW (16 dBm).
	DefaultTxPowerDBm = 16.0
	// DefaultCSThresholdDBm is the carrier-sense threshold: activity
	// received above this power marks the medium busy.
	DefaultCSThresholdDBm = -90.0
	// NoiseFloorDBm is the thermal noise floor of the receivers.
	NoiseFloorDBm = -95.0
)

// Transmission is one on-air PPDU as recorded by the medium. The record
// is symbolic; package iq renders amplitude samples from it on demand.
type Transmission struct {
	Src     int
	Channel spectrum.Channel
	Frame   phy.Frame
	Start   time.Duration
	End     time.Duration
	PowerDB float64 // transmit power in dBm
	// NoCS marks frames sent without carrier sense (ACKs after SIFS).
	NoCS bool
	// UID uniquely identifies the transmission within its medium.
	UID uint64
	// SrcPos is the transmitter's position at launch. A transmission
	// keeps its launch-time source geometry for its whole lifetime:
	// carrier sense, capture and IQ renders of this PPDU are computed
	// from SrcPos even if the source moves while the frame is in flight
	// (see SetPosition).
	SrcPos Position
	// srcSlot is Src's slot in the medium's slot table (see Air.slotFor),
	// set by Transmit and by materialize.
	srcSlot int32
}

// Duration returns the on-air duration.
func (t Transmission) Duration() time.Duration { return t.End - t.Start }

// overlapsTime reports whether the transmission is on air at any point
// in [from, to).
func (t Transmission) overlapsTime(from, to time.Duration) bool {
	return t.Start < to && from < t.End
}

// carrierSenser is the notification interface the medium uses to tell a
// node its sensed channel went busy or idle.
type carrierSenser interface {
	mediumBusyChanged(busy bool)
}

// AirCounters are the medium's cumulative delivery-outcome counts,
// maintained inline on the launch and delivery paths (see
// Air.Counters). Launches counts every Transmit; the remaining fields
// classify candidate deliveries: Delivered reached a receiver,
// BelowFloor fell under the decode SNR, HalfDuplex hit a receiver that
// was itself transmitting, Collisions lost to an overlapping audible
// transmission, FilterDrops were vetoed by DropFilter.
//
// Every count except BelowFloor is a property of the simulated world.
// BelowFloor also depends on how the medium found its candidates: a
// broadcast examines only the receivers its spatial-index query
// returned, whole grid cells around the sender, so the count varies
// with the cell size (GridCellM) and is at most what a walk over every
// attached node would count. A receiver the query leaves out is below
// the decode floor, so culling moves no other count.
type AirCounters struct {
	Launches    int64
	Delivered   int64
	BelowFloor  int64
	HalfDuplex  int64
	Collisions  int64
	FilterDrops int64
}

// Air is the shared UHF medium. All transmissions across all channels
// are recorded here; carrier sense, frame delivery and airtime accounting
// all derive from the record. Air is not safe for concurrent use: the
// simulation engine is single-threaded by design.
//
// The transmission record is a time-indexed log: start-time sorted (the
// virtual clock is monotonic), partitioned by center UHF channel, and
// queried with binary search, so scan-window renders and airtime
// accounting cost O(transmissions overlapping the window) instead of
// O(total history).
type Air struct {
	Eng *sim.Engine
	// Prop is the spatial propagation model applied between node
	// positions (see SetPosition). Nil behaves as FlatPropagation: zero
	// loss everywhere, the paper's all-in-range simulation setups.
	Prop Propagation
	// Retention, when positive, is the history horizon: once the log has
	// grown past an internal watermark, completed transmissions that
	// ended more than Retention before the current virtual time are
	// pruned automatically. Scan windows must not reach further back
	// than Retention. Zero (the default) keeps the full history.
	Retention time.Duration
	// PruneClock, when non-nil, supplies the reference time the
	// automatic retention prune subtracts Retention from, instead of
	// the engine's own clock. A sharded run sets it to the sharded
	// coordinator's Floor (a lower bound on every shard's clock): a
	// shard's engine clock can run ahead of the rest of the world
	// within a conservative window, and pruning against that leading
	// clock could discard history that a lagging reader — a
	// barrier-time observer sweeping all shards, or a fuzz harness
	// comparing media — is still entitled to scan. Nil (the default)
	// keeps the serial behavior: prune against Eng.Now().
	PruneClock func() time.Duration
	// GridCellM overrides the spatial index cell edge in meters. Zero
	// (the default) derives it from the propagation model's
	// carrier-sense range; see autoGridCell.
	GridCellM float64
	// DropFilter, when non-nil, is consulted once per candidate delivery
	// (after every physical-layer check passed) and returning true
	// suppresses that delivery — the hook the fault layer uses to impose
	// bursty Gilbert–Elliott loss on top of the interference model.
	// Carrier sense is unaffected: the frame was on air either way. The
	// filter runs inside the engine's event loop in a deterministic
	// order (unicast: the single receiver; broadcast: ascending node
	// id), so a filter drawing from its own seeded RNG keeps the
	// simulation a pure function of its seeds.
	DropFilter func(f phy.Frame, src, dst int) bool
	// Counters accumulates medium-level delivery outcomes. Increments
	// are plain field adds on paths that already run per launch or per
	// candidate delivery, so keeping them costs no allocation and no
	// extra pass.
	Counters AirCounters

	// The transmission history is a struct-of-arrays log: one parallel
	// column per field, all in start order (the virtual clock is
	// monotonic). Window scans touch only the hot columns they filter on
	// (start/end/channel/power/srcPos), so the per-event interference
	// scan walks densely packed cache lines instead of striding over
	// full Transmission records; the cold frame column is only read when
	// a record is materialized for a visitor or a delivery resolves.
	logStart  []time.Duration
	logEnd    []time.Duration
	logCh     []spectrum.Channel
	logPower  []float64
	logSrcPos []Position
	logSrc    []int32 // the source's slot, not its id
	logUID    []uint64
	logNoCS   []bool
	logFrame  []phy.Frame

	active []activeTx
	// byCenter partitions log indices by the transmission's center UHF
	// channel; other catches the (never expected) out-of-range centers.
	byCenter [spectrum.NumUHF][]int32
	other    []int32
	// maxDur is the longest on-air duration in the log: the look-behind
	// bound for binary-search window queries.
	maxDur time.Duration
	// reach[c] is the widest span reach (in UHF channels to either side
	// of the center) of any transmission recorded in partition c. A
	// partition whose reach cannot touch a query channel is skipped
	// wholesale — on narrow-channel-dominated media this prunes most of
	// the ±maxHalfSpan partition walk of cleanAt and collectContaining.
	reach [spectrum.NumUHF]spectrum.UHF
	// pruneAt is the log length at which the next automatic prune runs.
	pruneAt int

	// nodes holds the attached nodes sorted by id: the flat fan-out is a
	// plain slice walk in ascending id, and grid queries read their
	// candidates back from it by index. Each node records its own index
	// here (airNode.idx), which attach and detach keep current as they
	// shift the slice.
	nodes   []*airNode
	nextUID uint64

	// The slot table. Every id the medium sees — attached MAC nodes,
	// standalone scanners, spatially placed incumbents, observers, and
	// transmitters that never attach — gets a dense slot the first time
	// it appears (slotFor), and slots are never reused. Per-event state
	// carries slots (airNode.slot, Transmission.srcSlot, the log's source
	// column, the pinned sensed sets), so the fan-outs, delivery, the
	// interference scan and the observation sweeps index these slices
	// instead of hashing ids; slotOf is consulted only where an id
	// arrives from outside the medium.
	slotOf map[int]int32
	slotID []int
	// slotPos is each slot's position; ids never placed sit at the
	// origin, which under a nil/flat model reproduces legacy behavior.
	slotPos []Position
	// slotPlaced records whether SetPosition ever moved the id, the rule
	// that decides which ids the digest's pos rows list.
	slotPlaced []bool
	// slotNode is the attached node of each slot, nil when the id is not
	// attached.
	slotNode []*airNode
	// slotExcl and slotAPs are per-slot scratch of the observation
	// queries: the exclusion mark, and the mask of UHF channels on which
	// the source has been counted as an active AP. exclMarked and
	// apMarked list the slots set, and every query leaves both all zero.
	slotExcl   []bool
	slotAPs    []uint32
	exclMarked []int32
	apMarked   []int32

	// sensedPool recycles the pinned carrier-sense sets of finished
	// transmissions.
	sensedPool [][]int32

	// Transmission arena: slots are allocated once and recycled through
	// the free list when their transmission finishes.
	// txSlotGen counts recycles per slot; a TxHandle embeds the
	// generation it was issued against, so resolving a handle after its
	// transmission finished panics instead of silently reading the
	// slot's next occupant. txSlotLive guards against double-frees.
	txSlots    []*Transmission
	txSlotGen  []uint32
	txSlotLive []bool
	txFreeList []int32
	// finishFn is the end-of-transmission callback, bound once so every
	// Transmit schedules it with a packed TxHandle word instead of a
	// fresh closure. deliverFn/senseFn are the per-node visitors of the
	// delivery and launch fan-outs, likewise bound once; deliverTx/
	// launchTx/launchSensed carry their per-call state (Air is
	// single-threaded, and neither fan-out re-enters the other).
	finishFn     func(uint64)
	deliverFn    func(*airNode)
	senseFn      func(*airNode)
	deliverTx    *Transmission
	launchTx     *Transmission
	launchSensed []int32

	// grid is the uniform spatial index over attached nodes that the
	// fan-outs query (see grid.go). Built lazily on the first query with
	// a finite range, then maintained incrementally by attach, detach,
	// retune and SetPosition; nil until a finite-range model makes
	// culling possible.
	grid *nodeGrid

	// noiseRange and csRange are one-slot caches of the squared
	// interference radius per transmit power (against the noise floor
	// and the carrier-sense threshold respectively): the cheap distance
	// rejection the interference scan and observer-relative accounting
	// apply before evaluating a link budget.
	noiseRange rangeCache
	csRange    rangeCache

	// scratch buffers reused by window queries (Air is single-threaded).
	scratchIdx  []int32
	scratchIvs  []busyInterval
	scratchNear []*airNode
	// scratchMark is the candidate bitset of grid queries, one bit per
	// index of nodes; every query leaves it all-zero.
	scratchMark []uint64
	// Per-channel interval scratch reused across ObservationAt calls —
	// the per-round full-band observation is the assignment hot path,
	// and rebuilding 30 interval slices per call dominated its
	// allocation profile.
	obsIvs [spectrum.NumUHF][]busyInterval
}

// The per-slot AP masks hold one bit per UHF channel.
var _ [32 - spectrum.NumUHF]struct{}

// activeTx is one in-flight transmission plus the pinned set of node
// slots whose carrier sense it raised at launch. finish releases exactly
// this set, so positions changing mid-flight can never strand a busy
// count. The set is kept in ascending id order, not slot order: finish
// releases in set order and a release can schedule a DIFS, so the order
// fixes event sequence numbers. attach/retune/detach re-derive a node's
// membership (syncActive) against the transmission's launch geometry.
type activeTx struct {
	tx     *Transmission
	sensed []int32
}

type airNode struct {
	id        int
	slot      int32          // the id's slot in the medium's slot table
	idx       int            // index in Air.nodes (ascending id)
	cell      cellXY         // grid cell, while the grid exists
	span      []spectrum.UHF // sensed UHF channels (tuned channel span)
	senser    carrierSenser
	deliver   func(phy.Frame, *Transmission)
	channel   spectrum.Channel
	sensedCnt int // active transmissions currently sensed
	txUntil   time.Duration
	isAP      bool
}

// NewAir creates an empty medium bound to the engine.
func NewAir(eng *sim.Engine) *Air {
	a := &Air{Eng: eng}
	a.finishFn = a.finish
	a.deliverFn = a.deliverCurrent
	a.senseFn = a.senseCurrent
	return a
}

// deliverCurrent delivers a.deliverTx at n (the broadcast fan-out
// visitor, bound once in NewAir).
func (a *Air) deliverCurrent(n *airNode) { a.deliverTo(n, a.deliverTx) }

// senseCurrent raises carrier sense for a.launchTx at n (the launch
// fan-out visitor, bound once in NewAir), appending n to the pinned
// set being built in a.launchSensed.
func (a *Air) senseCurrent(n *airNode) {
	tx := a.launchTx
	if n.slot == tx.srcSlot || !a.hears(n, tx) {
		return
	}
	a.launchSensed = append(a.launchSensed, n.slot)
	n.sensedCnt++
	if n.sensedCnt == 1 && n.senser != nil {
		n.senser.mediumBusyChanged(true)
	}
}

// TxHandle is a generation-checked reference to a pooled transmission
// slot: the slot index packed with the generation the handle was issued
// against. A handle goes stale the moment its transmission finishes
// (the slot returns to the medium's free list); resolving a stale
// handle panics rather than reading whatever transmission reuses the
// slot. The zero TxHandle is never issued.
type TxHandle uint64

func packTxHandle(slot int32, gen uint32) TxHandle {
	return TxHandle(uint64(uint32(slot))<<32 | uint64(gen))
}

func (h TxHandle) slot() int32 { return int32(uint64(h) >> 32) }
func (h TxHandle) gen() uint32 { return uint32(h) }

// TxAlive reports whether h still resolves: its transmission has
// neither finished nor had its slot recycled.
func (a *Air) TxAlive(h TxHandle) bool {
	i := h.slot()
	return int(i) < len(a.txSlots) && a.txSlotGen[i] == h.gen() && a.txSlotLive[i]
}

// TxOf resolves a handle to its transmission. It panics on a stale
// handle — one whose transmission already finished (use-after-free) or
// whose slot has been recycled — because reading the slot would
// silently observe an unrelated transmission.
func (a *Air) TxOf(h TxHandle) *Transmission {
	if !a.TxAlive(h) {
		panic("mac: stale TxHandle: transmission already finished (use after free)")
	}
	return a.txSlots[h.slot()]
}

// allocTx takes a slot from the arena free list, growing the arena when
// it is empty. Slot pointers are stable for the life of the Air.
func (a *Air) allocTx() (int32, *Transmission) {
	if n := len(a.txFreeList); n > 0 {
		i := a.txFreeList[n-1]
		a.txFreeList = a.txFreeList[:n-1]
		a.txSlotLive[i] = true
		return i, a.txSlots[i]
	}
	a.txSlots = append(a.txSlots, &Transmission{})
	a.txSlotGen = append(a.txSlotGen, 0)
	a.txSlotLive = append(a.txSlotLive, true)
	return int32(len(a.txSlots) - 1), a.txSlots[len(a.txSlots)-1]
}

// freeTx recycles a slot, bumping its generation so outstanding
// handles go stale. Double-freeing a slot panics.
func (a *Air) freeTx(i int32) {
	if !a.txSlotLive[i] {
		panic("mac: transmission slot double-freed")
	}
	a.txSlotLive[i] = false
	a.txSlotGen[i]++
	*a.txSlots[i] = Transmission{}
	a.txFreeList = append(a.txFreeList, i)
}

// slotFor returns id's slot, giving the id the next slot the first
// time the medium sees it.
func (a *Air) slotFor(id int) int32 {
	if s, ok := a.slotOf[id]; ok {
		return s
	}
	if a.slotOf == nil {
		a.slotOf = make(map[int]int32)
	}
	s := int32(len(a.slotID))
	a.slotOf[id] = s
	a.slotID = append(a.slotID, id)
	a.slotPos = append(a.slotPos, Position{})
	a.slotPlaced = append(a.slotPlaced, false)
	a.slotNode = append(a.slotNode, nil)
	a.slotExcl = append(a.slotExcl, false)
	a.slotAPs = append(a.slotAPs, 0)
	return s
}

// node returns the attached node with the given id, or nil.
func (a *Air) node(id int) *airNode {
	if s, ok := a.slotOf[id]; ok {
		return a.slotNode[s]
	}
	return nil
}

// SetPosition places id on the simulation plane. Call it for every MAC
// node, standalone scanner, and incumbent transmitter of a spatial
// scenario; ids never placed default to the origin. Positions may change
// at any time (the dynamics layer batch-updates them every mobility
// epoch).
//
// Moves interact with in-flight transmissions under launch-time
// semantics: a PPDU already on air keeps the source position it was
// launched from (Transmission.SrcPos) for carrier sense, capture and IQ
// rendering, and the set of nodes whose carrier sense it raised is
// pinned at launch, so a mid-flight move can neither strand a busy
// indication nor retroactively change who the frame was audible to.
// Transmissions launched after the move use the new geometry.
func (a *Air) SetPosition(id int, p Position) {
	s := a.slotFor(id)
	// A no-op move changes nothing: the epoch updater re-applies every
	// trajectory each epoch, and an id placed at the origin it already
	// stands on is not marked placed.
	if a.slotPos[s] == p {
		return
	}
	a.slotPos[s] = p
	a.slotPlaced[s] = true
	if a.grid != nil {
		if n := a.slotNode[s]; n != nil {
			a.grid.move(n, p)
		}
	}
}

// PositionOf returns id's position (the origin when never placed).
func (a *Air) PositionOf(id int) Position { return a.slotPos[a.slotFor(id)] }

// RxPower returns the power (dBm) at which dst hears src, with both
// endpoints at their current positions.
func (a *Air) RxPower(src, dst int, txPowerDBm float64) float64 {
	if a.Prop == nil {
		return txPowerDBm
	}
	s, d := a.slotFor(src), a.slotFor(dst)
	return txPowerDBm - a.Prop.LossDB(a.slotPos[s], a.slotPos[d])
}

// RxPowerOf returns the power (dBm) at which dst hears transmission tx,
// evaluated with the transmission's launch-time source geometry: the
// wavefront left from where the transmitter stood when the PPDU started,
// regardless of where that node is now.
func (a *Air) RxPowerOf(tx *Transmission, dst int) float64 {
	if a.Prop == nil {
		return tx.PowerDB
	}
	return a.rxPowerOf(tx, a.slotFor(dst))
}

// rxPowerOf is RxPowerOf for the receiver in slot dst.
func (a *Air) rxPowerOf(tx *Transmission, dst int32) float64 {
	if a.Prop == nil {
		return tx.PowerDB
	}
	return tx.PowerDB - a.Prop.LossDB(tx.SrcPos, a.slotPos[dst])
}

// attach registers a node. deliver is called for each frame successfully
// received on the node's tuned channel; senser (optional) receives busy
// transitions.
func (a *Air) attach(id int, ch spectrum.Channel, isAP bool, senser carrierSenser, deliver func(phy.Frame, *Transmission)) *airNode {
	s := a.slotFor(id)
	n := &airNode{id: id, slot: s, channel: ch, span: ch.Span(), senser: senser, deliver: deliver, isAP: isAP}
	if old := a.slotNode[s]; old != nil {
		n.idx = old.idx
		a.nodes[n.idx] = n
		if a.grid != nil {
			a.grid.replace(old, n)
		}
	} else {
		n.idx = sort.Search(len(a.nodes), func(i int) bool { return a.nodes[i].id >= id })
		a.nodes = slices.Insert(a.nodes, n.idx, n)
		a.reindexFrom(n.idx + 1)
		if a.grid != nil {
			a.grid.insert(n, a.slotPos[s])
		}
	}
	a.slotNode[s] = n
	a.syncActive(n)
	return n
}

// detach removes a node from the medium and from the pinned sensed set
// of every in-flight transmission (its busy counts leave with it).
func (a *Air) detach(id int) {
	s, ok := a.slotOf[id]
	if !ok {
		return
	}
	if o := a.slotNode[s]; o != nil {
		a.nodes = slices.Delete(a.nodes, o.idx, o.idx+1)
		a.reindexFrom(o.idx)
		a.slotNode[s] = nil
		if a.grid != nil {
			a.grid.remove(o)
		}
	}
	for i := range a.active {
		e := &a.active[i]
		if j, found := a.sensedIndex(e.sensed, s); found {
			e.sensed = slices.Delete(e.sensed, j, j+1)
		}
	}
}

// reindexFrom refreshes airNode.idx for nodes[i:] after a shift.
func (a *Air) reindexFrom(i int) {
	for ; i < len(a.nodes); i++ {
		a.nodes[i].idx = i
	}
}

// eachNode visits nodes in ascending id order.
func (a *Air) eachNode(f func(*airNode)) {
	for _, n := range a.nodes {
		f(n)
	}
}

// retune changes the channel a node listens and senses on. The node's
// busy state is re-derived against currently active transmissions.
func (a *Air) retune(n *airNode, ch spectrum.Channel) {
	oldSpan := n.span
	n.channel = ch
	n.span = ch.Span()
	if a.grid != nil {
		a.grid.retune(n, oldSpan)
	}
	was := n.sensedCnt > 0
	a.syncActive(n)
	now := n.sensedCnt > 0
	if was != now && n.senser != nil {
		n.senser.mediumBusyChanged(now)
	}
}

// syncActive re-derives node n's membership in every in-flight
// transmission's pinned sensed set — against each transmission's
// launch-time source geometry and n's current channel and position —
// and sets n.sensedCnt accordingly. attach and retune use it so that
// finish (which releases exactly the pinned sets) stays consistent with
// nodes that joined, left, or changed channels mid-flight.
func (a *Air) syncActive(n *airNode) {
	cnt := 0
	for i := range a.active {
		e := &a.active[i]
		if e.tx.srcSlot == n.slot {
			continue
		}
		j, found := a.sensedIndex(e.sensed, n.slot)
		if a.hears(n, e.tx) {
			cnt++
			if !found {
				e.sensed = slices.Insert(e.sensed, j, n.slot)
			}
		} else if found {
			e.sensed = slices.Delete(e.sensed, j, j+1)
		}
	}
	n.sensedCnt = cnt
}

// sensedIndex returns where slot s sits in the pinned sensed set, which
// is kept in ascending id order, or where it would be inserted, and
// whether it is there.
func (a *Air) sensedIndex(set []int32, s int32) (int, bool) {
	id := a.slotID[s]
	i := sort.Search(len(set), func(i int) bool { return a.slotID[set[i]] >= id })
	return i, i < len(set) && set[i] == s
}

// hears reports whether node n senses transmission tx: spans overlap and
// received power (from the transmission's launch-time source position)
// is above the carrier-sense threshold.
func (a *Air) hears(n *airNode, tx *Transmission) bool {
	if !n.channel.Overlaps(tx.Channel) {
		return false
	}
	return a.rxPowerOf(tx, n.slot) >= DefaultCSThresholdDBm
}

// SensedBusy reports whether node id currently senses any carrier on any
// UHF channel of its tuned span (the multi-channel carrier sense rule).
func (a *Air) SensedBusy(id int) bool {
	n := a.node(id)
	return n != nil && n.sensedCnt > 0
}

// sensedBusyAt is SensedBusy for the id in slot s.
func (a *Air) sensedBusyAt(s int32) bool {
	n := a.slotNode[s]
	return n != nil && n.sensedCnt > 0
}

// Transmit puts a frame on the air from node id over channel ch for the
// frame's airtime at that width. Delivery (or corruption) is resolved
// when the transmission ends. It returns the transmission record, which
// lives in the medium's arena: it is valid until the transmission
// finishes (its end event has fired and deliveries resolved), after
// which the slot is recycled — callers must not retain it past the
// transmission's End.
func (a *Air) Transmit(id int, ch spectrum.Channel, f phy.Frame, powerDBm float64, noCS bool) *Transmission {
	now := a.Eng.Now()
	a.nextUID++
	a.Counters.Launches++
	src := a.slotFor(id)
	slot, tx := a.allocTx()
	*tx = Transmission{
		Src:     id,
		Channel: ch,
		Frame:   f,
		Start:   now,
		End:     now + f.Airtime(ch.Width),
		PowerDB: powerDBm,
		NoCS:    noCS,
		UID:     a.nextUID,
		SrcPos:  a.slotPos[src],
		srcSlot: src,
	}
	a.record(tx)
	entry := activeTx{tx: tx, sensed: a.grabSensed()}
	if n := a.slotNode[src]; n != nil {
		n.txUntil = tx.End
	}
	// Raise busy at every node that hears this transmission, pinning the
	// raised set. Only nodes within the model's carrier-sense range of
	// the launch position can hear (hears needs rx at or above the CS
	// threshold), so the walk is culled to the interference neighborhood;
	// visits stay in ascending id order, so the pinned set is in id order.
	a.launchTx = tx
	a.launchSensed = entry.sensed
	a.eachNodeOverlappingWithin(tx.SrcPos, a.cullRange(powerDBm, DefaultCSThresholdDBm), ch, a.senseFn)
	entry.sensed = a.launchSensed
	a.launchTx = nil
	a.launchSensed = nil
	a.active = append(a.active, entry)
	a.Eng.ScheduleArg(tx.End, a.finishFn, uint64(packTxHandle(slot, a.txSlotGen[slot])))
	return tx
}

// finish is the end-of-transmission event, scheduled by Transmit with
// the transmission's packed handle. It drops busy indications at
// exactly the nodes the launch pinned (as maintained by syncActive
// since), resolves delivery at each candidate receiver, and recycles
// the arena slot: delivery callbacks are the last code to see the
// record. TxOf's generation check is a corruption tripwire here — only
// finish frees slots, so the handle cannot have gone stale unless the
// arena's bookkeeping broke.
func (a *Air) finish(word uint64) {
	h := TxHandle(word)
	tx := a.TxOf(h)
	var sensed []int32
	for i := range a.active {
		if a.active[i].tx == tx {
			sensed = a.active[i].sensed
			a.active = append(a.active[:i], a.active[i+1:]...)
			break
		}
	}
	for _, s := range sensed {
		n := a.slotNode[s]
		if n == nil {
			continue
		}
		n.sensedCnt--
		if n.sensedCnt == 0 && n.senser != nil {
			n.senser.mediumBusyChanged(false)
		}
	}
	a.releaseSensed(sensed)
	// Delivery: only receivers tuned to exactly the transmission's
	// channel (same center frequency and width) can decode, per the
	// variable-width decoding limitation. A unicast frame has exactly
	// one candidate receiver — look its slot up directly instead of walking
	// the node set; broadcasts walk the decode neighborhood (cleanAt
	// rejects anything below the decode floor, so nodes beyond that
	// radius can be skipped without changing any outcome).
	if tx.Frame.Dst != phy.Broadcast {
		if n := a.node(tx.Frame.Dst); n != nil {
			a.deliverTo(n, tx)
		}
	} else {
		a.deliverTx = tx
		a.eachNodeOverlappingWithin(tx.SrcPos, a.cullRange(tx.PowerDB, NoiseFloorDBm+decodeSNRdB), tx.Channel, a.deliverFn)
		a.deliverTx = nil
	}
	a.freeTx(h.slot())
}

// deliverTo resolves one candidate delivery of tx at node n.
func (a *Air) deliverTo(n *airNode, tx *Transmission) {
	if n.slot == tx.srcSlot || n.deliver == nil {
		return
	}
	if n.channel != tx.Channel {
		return
	}
	if !a.cleanAt(n, tx) {
		return
	}
	if a.DropFilter != nil && a.DropFilter(tx.Frame, tx.Src, n.id) {
		a.Counters.FilterDrops++
		return
	}
	a.Counters.Delivered++
	n.deliver(tx.Frame, tx)
}

// cleanAt reports whether receiver n could decode tx: received power
// above the decode threshold, the receiver not transmitting itself, and
// no other audible transmission overlapping tx in time on any UHF
// channel of the receiver's span.
func (a *Air) cleanAt(n *airNode, tx *Transmission) bool {
	rx := a.rxPowerOf(tx, n.slot)
	if rx-NoiseFloorDBm < decodeSNRdB {
		a.Counters.BelowFloor++
		return false
	}
	// Half duplex: receiver transmitting during any part of tx.
	if n.txUntil > tx.Start {
		a.Counters.HalfDuplex++
		return false
	}
	// Interferer scan. Any transmission overlapping the receiver's span
	// is centered within maxHalfSpan of it, so only those partitions
	// (plus the out-of-range catch-all) can hold interferers; each is
	// binary-searched to the frames overlapping tx's airtime. In a dense
	// world this is O(frames concurrent with tx on nearby centers)
	// instead of O(all recent frames on all channels).
	a.noiseRange.follow(a.Prop)
	lo, hi := n.channel.Bounds()
	for c := lo - maxHalfSpan; c <= hi+maxHalfSpan; c++ {
		if !a.partitionReaches(c, lo, hi) {
			continue
		}
		if a.interferedIn(a.partition(c), n, tx) {
			a.Counters.Collisions++
			return false
		}
	}
	if a.interferedIn(a.other, n, tx) {
		a.Counters.Collisions++
		return false
	}
	return true
}

// partitionReaches reports whether partition c could hold a
// transmission whose span touches the UHF range [lo, hi], given the
// widest reach actually recorded in it. Narrow-channel partitions two
// centers away hold only transmissions that cannot overlap, and are
// skipped without a walk.
func (a *Air) partitionReaches(c, lo, hi spectrum.UHF) bool {
	if !c.Valid() {
		return false
	}
	r := a.reach[c]
	return c+r >= lo && c-r <= hi
}

// rangeCache memoizes one squared cull radius per transmit power under
// the propagation model it was filled for; transmit powers are uniform
// across a scenario, so a single slot hits almost always.
type rangeCache struct {
	prop Propagation
	pow  float64
	r2   float64
	ok   bool
}

// follow empties c if it was filled under a model other than p. Every
// query that reads c calls it once on entry, so the per-row check in
// beyondRange compares only the power: Prop may change between queries,
// never during one.
func (c *rangeCache) follow(p Propagation) {
	if c.prop != p {
		*c = rangeCache{prop: p}
	}
}

// beyondRange reports whether a receiver at squared distance d2 from a
// transmitter at powerDBm is provably below floorDBm under the current
// model — the cheap geometric rejection applied before a full link
// budget. c must have followed a.Prop in the calling query. It never
// rejects when the medium cannot cull.
func (a *Air) beyondRange(c *rangeCache, powerDBm, floorDBm, d2 float64) bool {
	if a.Prop == nil {
		return false
	}
	if !c.ok || c.pow != powerDBm {
		r := a.Prop.MaxRangeFor(powerDBm, floorDBm)
		c.pow, c.r2, c.ok = powerDBm, r*r, true
	}
	return d2 > c.r2
}

// dist2 is the squared distance between two positions.
func dist2(p, q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// interferedIn reports whether partition idx holds a transmission other
// than tx that overlaps it in time, overlaps receiver n's channel, and
// arrives at n above the noise floor. The scan reads only the hot log
// columns — this is the per-delivery inner loop the struct-of-arrays
// layout exists for.
func (a *Air) interferedIn(idx []int32, n *airNode, tx *Transmission) bool {
	rxPos := a.slotPos[n.slot]
	for i := a.searchStartIdx(idx, tx.Start-a.maxDur); i < len(idx); i++ {
		j := idx[i]
		if a.logStart[j] >= tx.End {
			break
		}
		if a.logUID[j] == tx.UID || a.logSrc[j] == n.slot {
			continue
		}
		if a.logStart[j] >= tx.End || a.logEnd[j] <= tx.Start {
			continue
		}
		if !n.channel.Overlaps(a.logCh[j]) {
			continue
		}
		// Geometric rejection first: an interferer provably below the
		// noise floor at this distance needs no link-budget evaluation.
		if a.beyondRange(&a.noiseRange, a.logPower[j], NoiseFloorDBm, dist2(a.logSrcPos[j], rxPos)) {
			continue
		}
		if a.rxPowerAt(j, n.slot) >= NoiseFloorDBm {
			return true
		}
	}
	return false
}

// grabSensed returns an empty pinned-set buffer, recycling one released
// by an earlier finish when possible.
func (a *Air) grabSensed() []int32 {
	if n := len(a.sensedPool); n > 0 {
		s := a.sensedPool[n-1]
		a.sensedPool = a.sensedPool[:n-1]
		return s[:0]
	}
	return nil
}

// releaseSensed returns a pinned-set buffer to the pool.
func (a *Air) releaseSensed(s []int32) {
	if cap(s) > 0 {
		a.sensedPool = append(a.sensedPool, s)
	}
}

// decodeSNRdB is the SNR needed for the transceiver to decode a frame.
const decodeSNRdB = 10

// logLen returns the number of logged transmissions (all columns share
// this length).
func (a *Air) logLen() int { return len(a.logStart) }

// ArenaLive returns the number of transmission-arena slots currently
// occupied by in-flight transmissions.
func (a *Air) ArenaLive() int { return len(a.txSlots) - len(a.txFreeList) }

// ArenaCap returns the total number of arena slots ever allocated
// (the high-water mark of concurrent transmissions).
func (a *Air) ArenaCap() int { return len(a.txSlots) }

// ActiveCount returns the number of transmissions currently on air.
func (a *Air) ActiveCount() int { return len(a.active) }

// LogSize returns the number of transmissions held in the history log.
func (a *Air) LogSize() int { return a.logLen() }

// record appends a transmission to the column-wise time-indexed log and
// maintains the per-center partitions, the look-behind bound, and the
// automatic retention prune.
func (a *Air) record(tx *Transmission) {
	i := int32(a.logLen())
	a.logStart = append(a.logStart, tx.Start)
	a.logEnd = append(a.logEnd, tx.End)
	a.logCh = append(a.logCh, tx.Channel)
	a.logPower = append(a.logPower, tx.PowerDB)
	a.logSrcPos = append(a.logSrcPos, tx.SrcPos)
	a.logSrc = append(a.logSrc, tx.srcSlot)
	a.logUID = append(a.logUID, tx.UID)
	a.logNoCS = append(a.logNoCS, tx.NoCS)
	a.logFrame = append(a.logFrame, tx.Frame)
	if c := tx.Channel.Center; c.Valid() {
		a.byCenter[c] = append(a.byCenter[c], i)
		if r := channelReach(tx.Channel); r > a.reach[c] {
			a.reach[c] = r
		}
	} else {
		a.other = append(a.other, i)
	}
	if d := tx.Duration(); d > a.maxDur {
		a.maxDur = d
	}
	if a.Retention > 0 && a.logLen() >= a.pruneAt {
		ref := a.Eng.Now()
		if a.PruneClock != nil {
			if c := a.PruneClock(); c < ref {
				ref = c
			}
		}
		a.Prune(ref - a.Retention)
		a.pruneAt = 2*a.logLen() + minPruneWatermark
	}
}

// materialize assembles the logged transmission at index i into out.
func (a *Air) materialize(i int32, out *Transmission) {
	out.Src = a.slotID[a.logSrc[i]]
	out.srcSlot = a.logSrc[i]
	out.Channel = a.logCh[i]
	out.Frame = a.logFrame[i]
	out.Start = a.logStart[i]
	out.End = a.logEnd[i]
	out.PowerDB = a.logPower[i]
	out.NoCS = a.logNoCS[i]
	out.UID = a.logUID[i]
	out.SrcPos = a.logSrcPos[i]
}

// rxPowerAt returns the power (dBm) at which the id in slot dst hears
// the logged transmission at index i — RxPowerOf over the log columns.
func (a *Air) rxPowerAt(i int32, dst int32) float64 {
	if a.Prop == nil {
		return a.logPower[i]
	}
	return a.logPower[i] - a.Prop.LossDB(a.logSrcPos[i], a.slotPos[dst])
}

// minPruneWatermark keeps automatic pruning from running on tiny logs.
const minPruneWatermark = 1024

// channelReach returns how many UHF channels ch extends to either side
// of its center, the per-partition pruning radius tracked by record.
func channelReach(ch spectrum.Channel) spectrum.UHF {
	lo, hi := ch.Bounds()
	r := ch.Center - lo
	if hi-ch.Center > r {
		r = hi - ch.Center
	}
	return r
}

// History returns all recorded transmissions, in start order,
// materialized from the column log. It allocates the full copy: a
// debugging and test API, not a hot path.
func (a *Air) History() []Transmission {
	out := make([]Transmission, a.logLen())
	for i := range out {
		a.materialize(int32(i), &out[i])
	}
	return out
}

// Prune drops completed transmissions that ended before t, bounding
// memory in long simulations. Scan windows must not reach behind t.
// Active transmissions always survive. The prune is a column-wise
// in-place compaction followed by a partition rebuild, so it costs
// O(surviving log) and allocates nothing.
func (a *Air) Prune(before time.Duration) {
	n := a.logLen()
	k := 0
	for i := 0; i < n; i++ {
		if a.logEnd[i] < before {
			continue
		}
		if k != i {
			a.logStart[k] = a.logStart[i]
			a.logEnd[k] = a.logEnd[i]
			a.logCh[k] = a.logCh[i]
			a.logPower[k] = a.logPower[i]
			a.logSrcPos[k] = a.logSrcPos[i]
			a.logSrc[k] = a.logSrc[i]
			a.logUID[k] = a.logUID[i]
			a.logNoCS[k] = a.logNoCS[i]
			a.logFrame[k] = a.logFrame[i]
		}
		k++
	}
	// Clear the dropped frame tail so pruning releases Meta payloads.
	for i := k; i < n; i++ {
		a.logFrame[i] = phy.Frame{}
	}
	a.logStart = a.logStart[:k]
	a.logEnd = a.logEnd[:k]
	a.logCh = a.logCh[:k]
	a.logPower = a.logPower[:k]
	a.logSrcPos = a.logSrcPos[:k]
	a.logSrc = a.logSrc[:k]
	a.logUID = a.logUID[:k]
	a.logNoCS = a.logNoCS[:k]
	a.logFrame = a.logFrame[:k]
	for c := range a.byCenter {
		a.byCenter[c] = a.byCenter[c][:0]
	}
	a.other = a.other[:0]
	a.maxDur = 0
	a.reach = [spectrum.NumUHF]spectrum.UHF{}
	for i := 0; i < k; i++ {
		if c := a.logCh[i].Center; c.Valid() {
			a.byCenter[c] = append(a.byCenter[c], int32(i))
			if r := channelReach(a.logCh[i]); r > a.reach[c] {
				a.reach[c] = r
			}
		} else {
			a.other = append(a.other, int32(i))
		}
		if d := a.logEnd[i] - a.logStart[i]; d > a.maxDur {
			a.maxDur = d
		}
	}
}

// searchStart returns the first log index whose transmission starts at
// or after t.
func (a *Air) searchStart(t time.Duration) int {
	return sort.Search(a.logLen(), func(i int) bool { return a.logStart[i] >= t })
}

// searchStartIdx is searchStart over a partition's index slice.
func (a *Air) searchStartIdx(idx []int32, t time.Duration) int {
	return sort.Search(len(idx), func(i int) bool { return a.logStart[idx[i]] >= t })
}

// ForEachCenterOverlapping visits, in start order, every transmission
// whose channel is centered on UHF channel center and that is on air at
// any point of [from, to). Narrow-band renders use this to skip every
// irrelevant channel partition entirely. The visited record is
// materialized into call-local scratch: it is only valid during the
// call and is overwritten between visits.
func (a *Air) ForEachCenterOverlapping(center spectrum.UHF, from, to time.Duration, visit func(*Transmission)) {
	a.forEachIdxOverlapping(a.partition(center), from, to, visit)
}

func (a *Air) partition(center spectrum.UHF) []int32 {
	if !center.Valid() {
		return nil
	}
	return a.byCenter[center]
}

func (a *Air) forEachIdxOverlapping(idx []int32, from, to time.Duration, visit func(*Transmission)) {
	var tx Transmission
	for i := a.searchStartIdx(idx, from-a.maxDur); i < len(idx); i++ {
		j := idx[i]
		if a.logStart[j] >= to {
			break
		}
		if a.logEnd[j] > from {
			a.materialize(j, &tx)
			visit(&tx)
		}
	}
}

// maxHalfSpan is the widest channel's reach in UHF channels to each
// side of its center: a 20 MHz channel spans two. Any transmission
// whose span touches UHF channel u is therefore centered within
// maxHalfSpan of u — the partition-pruning bound of collectContaining
// and cleanAt.
const maxHalfSpan = 2

// collectContaining gathers, into the shared scratch index buffer, the
// start-ordered log indices of every transmission whose channel span
// includes u and that overlaps [from, to). Only the partitions of
// centers within maxHalfSpan of u are consulted. Column-direct queries
// (BusyFractionAt, ActiveAPsAt) iterate the returned indices against
// the log columns without materializing records; the buffer is
// overwritten by the next window query.
func (a *Air) collectContaining(u spectrum.UHF, from, to time.Duration) []int32 {
	a.scratchIdx = a.scratchIdx[:0]
	for c := u - maxHalfSpan; c <= u+maxHalfSpan; c++ {
		if !a.partitionReaches(c, u, u) {
			continue
		}
		idx := a.partition(c)
		for i := a.searchStartIdx(idx, from-a.maxDur); i < len(idx); i++ {
			j := idx[i]
			if a.logStart[j] >= to {
				break
			}
			if a.logEnd[j] > from && a.logCh[j].Contains(u) {
				a.scratchIdx = append(a.scratchIdx, j)
			}
		}
	}
	for i := a.searchStartIdx(a.other, from-a.maxDur); i < len(a.other); i++ {
		j := a.other[i]
		if a.logStart[j] >= to {
			break
		}
		if a.logEnd[j] > from && a.logCh[j].Contains(u) {
			a.scratchIdx = append(a.scratchIdx, j)
		}
	}
	// Log indices are start-ordered; merge the partitions by sorting the
	// collected indices so visitors observe start order. Insertion sort:
	// the collected runs are already sorted and short.
	for i := 1; i < len(a.scratchIdx); i++ {
		for j := i; j > 0 && a.scratchIdx[j] < a.scratchIdx[j-1]; j-- {
			a.scratchIdx[j], a.scratchIdx[j-1] = a.scratchIdx[j-1], a.scratchIdx[j]
		}
	}
	return a.scratchIdx
}

// IdealObserver selects the omniscient accounting in BusyFractionAt and
// ActiveAPsAt: every transmission is audible regardless of distance (the
// global ground truth the QualNet-style experiments validate against).
const IdealObserver = -1

// observerSlot returns observer's slot, or -1 for IdealObserver.
func (a *Air) observerSlot(observer int) int32 {
	if observer == IdealObserver {
		return -1
	}
	return a.slotFor(observer)
}

// markExcluded marks the slots of the ids exclude maps to true, once per
// query, so the log walk tests a slice instead of hashing every row's
// source. An id without a slot is the source of no logged transmission
// and needs no mark. unmarkExcluded clears the marks.
func (a *Air) markExcluded(exclude map[int]bool) {
	for id, ex := range exclude {
		if s, ok := a.slotOf[id]; ok && ex {
			a.slotExcl[s] = true
			a.exclMarked = append(a.exclMarked, s)
		}
	}
}

func (a *Air) unmarkExcluded() {
	for _, s := range a.exclMarked {
		a.slotExcl[s] = false
	}
	a.exclMarked = a.exclMarked[:0]
}

// markAP sets bit in slot s's AP mask and reports whether it was clear:
// whether this is the first time the query counts s under that bit.
// unmarkAPs clears every mask the query set.
func (a *Air) markAP(s int32, bit uint32) bool {
	m := a.slotAPs[s]
	if m&bit != 0 {
		return false
	}
	if m == 0 {
		a.apMarked = append(a.apMarked, s)
	}
	a.slotAPs[s] = m | bit
	return true
}

func (a *Air) unmarkAPs() {
	for _, s := range a.apMarked {
		a.slotAPs[s] = 0
	}
	a.apMarked = a.apMarked[:0]
}

// countsAsAP reports whether the logged transmission at index i counts
// toward an active-AP tally: its source is an attached AP or, for a
// source that has since detached, the frame looks like AP traffic (a
// beacon).
func (a *Air) countsAsAP(i int32) bool {
	if n := a.slotNode[a.logSrc[i]]; n != nil {
		return n.isAP
	}
	return a.logFrame[i].Kind == phy.KindBeacon
}

// audibleAt reports whether the observer in slot obs receives the
// logged transmission at index i above the carrier-sense threshold; the
// ideal observer (obs -1) hears everything. The calling query has made
// csRange follow the current model.
func (a *Air) audibleAt(obs int32, i int32) bool {
	if obs < 0 {
		return true
	}
	if a.beyondRange(&a.csRange, a.logPower[i], DefaultCSThresholdDBm, dist2(a.logSrcPos[i], a.slotPos[obs])) {
		return false
	}
	return a.rxPowerAt(i, obs) >= DefaultCSThresholdDBm
}

// BusyFractionAt returns the fraction of [from, to) during which UHF
// channel u carried at least one transmission heard at node observer,
// ignoring transmissions from the source nodes in exclude (nil excludes
// none). Only transmissions whose received power at the observer's
// position reaches the carrier-sense threshold contribute: the
// receiver-relative airtime a real node's scanner would measure, since
// under spatial propagation different nodes genuinely observe different
// airtime on the same UHF channel. With IdealObserver and no exclusions
// it is the ground-truth airtime utilization A_c used to validate
// SIFT's estimate; a WhiteFi network excludes its own members when
// measuring background airtime, because the MCham metric estimates the
// share of the channel *other* traffic leaves available. The indexed
// log keeps the query O(transmissions overlapping the window).
func (a *Air) BusyFractionAt(observer int, u spectrum.UHF, from, to time.Duration, exclude map[int]bool) float64 {
	if to <= from {
		return 0
	}
	obs := a.observerSlot(observer)
	a.csRange.follow(a.Prop)
	a.markExcluded(exclude)
	ivs := a.scratchIvs[:0]
	// collectContaining returns indices in start order, so the intervals
	// arrive already sorted and the union is a single sweep.
	for _, i := range a.collectContaining(u, from, to) {
		if a.slotExcl[a.logSrc[i]] || !a.audibleAt(obs, i) {
			continue
		}
		ivs = append(ivs, clipInterval(a.logStart[i], a.logEnd[i], from, to))
	}
	a.unmarkExcluded()
	a.scratchIvs = ivs[:0]
	return unionFraction(ivs, from, to)
}

// busyInterval is one clipped on-air span inside a query window.
type busyInterval struct{ s, e time.Duration }

// clipInterval clips the on-air span [s, e) to the window [from, to).
func clipInterval(s, e, from, to time.Duration) busyInterval {
	return busyInterval{max(s, from), min(e, to)}
}

// unionFraction returns the fraction of [from, to) covered by the union
// of ivs, which arrive sorted by start.
func unionFraction(ivs []busyInterval, from, to time.Duration) float64 {
	var busy, end time.Duration
	end = -1
	for _, v := range ivs {
		if v.s > end {
			busy += v.e - v.s
			end = v.e
		} else if v.e > end {
			busy += v.e - end
			end = v.e
		}
	}
	return float64(busy) / float64(to-from)
}

// ObservationAt computes the full per-UHF-channel observation — busy
// airtime fraction and active-AP count, as heard at node observer, with
// the given source nodes excluded — in a single sweep of the indexed
// log. It returns exactly what 30 BusyFractionAt plus 30 ActiveAPsAt
// calls would, but visits every window-overlapping transmission once
// instead of once per (channel, partition) pair: the observation is the
// per-node assignment hot path in dense worlds, where a full-band view
// per AP per round would otherwise rescan the same log stretch ~60
// times.
func (a *Air) ObservationAt(observer int, from, to time.Duration, exclude map[int]bool) (airtime [spectrum.NumUHF]float64, aps [spectrum.NumUHF]int) {
	if to <= from {
		return
	}
	obs := a.observerSlot(observer)
	a.csRange.follow(a.Prop)
	a.markExcluded(exclude)
	for u := range a.obsIvs {
		a.obsIvs[u] = a.obsIvs[u][:0]
	}
	// One cache-linear walk of the column log over the window: every
	// entry is in exactly one partition, so the full-log walk visits the
	// same set the per-partition walks did — but in global start order,
	// so each channel's intervals arrive pre-sorted and the union sweep
	// needs no per-channel sort (the union is order-independent, so the
	// result matches the per-channel query exactly). A source counts once
	// per channel: its slot's AP mask records the channels it was
	// counted on.
	n := a.logLen()
	for i := a.searchStart(from - a.maxDur); i < n; i++ {
		if a.logStart[i] >= to {
			break
		}
		if a.logEnd[i] <= from {
			continue
		}
		src := a.logSrc[i]
		if a.slotExcl[src] || !a.audibleAt(obs, int32(i)) {
			continue
		}
		iv := clipInterval(a.logStart[i], a.logEnd[i], from, to)
		countAP := a.countsAsAP(int32(i))
		lo, hi := a.logCh[i].Bounds()
		for u := max(lo, 0); u <= min(hi, spectrum.NumUHF-1); u++ {
			a.obsIvs[u] = append(a.obsIvs[u], iv)
			if countAP && a.markAP(src, 1<<u) {
				aps[u]++
			}
		}
	}
	a.unmarkExcluded()
	a.unmarkAPs()
	for u := range a.obsIvs {
		airtime[u] = unionFraction(a.obsIvs[u], from, to)
	}
	return airtime, aps
}

// ActiveAPsAt returns the number of distinct AP nodes that transmitted
// on a channel spanning u during [from, to), as heard at node observer
// and ignoring the source nodes in exclude (nil excludes none). APs
// whose transmissions do not reach the observer's position above the
// carrier-sense threshold are invisible to it, just as they would be to
// the node's SIFT scanner. With IdealObserver it is the ground-truth
// B_c of Section 4.1.
func (a *Air) ActiveAPsAt(observer int, u spectrum.UHF, from, to time.Duration, exclude map[int]bool) int {
	obs := a.observerSlot(observer)
	a.csRange.follow(a.Prop)
	a.markExcluded(exclude)
	count := 0
	for _, i := range a.collectContaining(u, from, to) {
		src := a.logSrc[i]
		if a.slotExcl[src] || !a.audibleAt(obs, i) {
			continue
		}
		if a.countsAsAP(i) && a.markAP(src, 1) {
			count++
		}
	}
	a.unmarkExcluded()
	a.unmarkAPs()
	return count
}
