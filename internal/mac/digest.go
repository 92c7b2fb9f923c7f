package mac

import (
	"cmp"
	"slices"

	"whitefi/internal/checkpoint"
	"whitefi/internal/phy"
)

// DigestState writes a canonical rendition of the medium's live state
// to d, for checkpoint section digests: the outcome counters, every
// attached node's tuning (id, channel, position, role, carrier-sense
// count), every in-flight transmission, the full struct-of-arrays
// transmission log in start order, and the arena occupancy. Two media
// built by the same deterministic scenario at the same virtual time
// render byte-identically, so an FNV digest of this stream pins the
// whole physical layer.
func (a *Air) DigestState(d *checkpoint.Digest) {
	c := a.Counters
	d.Row("air").Int("launches", c.Launches).Int("delivered", c.Delivered).Int("below", c.BelowFloor).
		Int("half", c.HalfDuplex).Int("coll", c.Collisions).Int("filter", c.FilterDrops).
		Uint("nextuid", a.nextUID).Int("log", int64(len(a.logStart))).
		Pair("arena", int64(a.ArenaLive()), int64(a.ArenaCap())).End()
	for _, s := range a.placedSlots() {
		p := a.slotPos[s]
		d.Row("pos").Int("id", int64(a.slotID[s])).Float("x", p.X).Float("y", p.Y).End()
	}
	for _, n := range a.nodes {
		d.Row("node").Int("id", int64(n.id)).Pair("ch", int64(n.channel.Center), int64(n.channel.Width)).
			Bool("ap", n.isAP).Int("sensed", int64(n.sensedCnt)).Int("txuntil", int64(n.txUntil))
		checkpoint.List(d, "span", n.span).End()
	}
	for _, at := range a.active {
		tx := at.tx
		d.Row("active").Uint("uid", tx.UID).Int("src", int64(tx.Src)).
			Pair("ch", int64(tx.Channel.Center), int64(tx.Channel.Width)).
			Int("start", int64(tx.Start)).Int("end", int64(tx.End)).Float("pwr", tx.PowerDB).
			Bool("nocs", tx.NoCS).Int("sensed", int64(len(at.sensed))).End()
	}
	for i := range a.logStart {
		ch, p, f := a.logCh[i], a.logSrcPos[i], &a.logFrame[i]
		d.Row("tx").Uint("uid", a.logUID[i]).Int("src", int64(int32(a.slotID[a.logSrc[i]]))).
			Pair("ch", int64(ch.Center), int64(ch.Width)).
			Int("start", int64(a.logStart[i])).Int("end", int64(a.logEnd[i])).
			Float("pwr", a.logPower[i]).Bool("nocs", a.logNoCS[i]).Float("x", p.X).Float("y", p.Y).
			Int("kind", int64(f.Kind)).Int("dst", int64(f.Dst)).Int("bytes", int64(f.Bytes)).Uint("seq", f.Seq).End()
	}
}

// placedSlots returns, in ascending id order, the slots of the ids
// SetPosition has placed: the ids the digest's pos rows list.
func (a *Air) placedSlots() []int32 {
	placed := make([]int32, 0, len(a.slotPlaced))
	for s, ok := range a.slotPlaced {
		if ok {
			placed = append(placed, int32(s))
		}
	}
	slices.SortFunc(placed, func(x, y int32) int { return cmp.Compare(a.slotID[x], a.slotID[y]) })
	return placed
}

// NodeCount reports the number of attached nodes — the item count of
// the medium's checkpoint section.
func (a *Air) NodeCount() int { return len(a.nodes) }

// DigestState writes the node's canonical MAC state to d: the DCF
// machine (state, contention window, backoff slots, retry count), the
// bounded egress queue contents, the pending/current frame registers,
// and the delivery statistics. Together with Air.DigestState this
// covers every mutable field the transceiver owns; the node's backoff
// RNG position is excluded like every other RNG stream (see
// sim.Engine.DigestState).
func (n *Node) DigestState(d *checkpoint.Digest) {
	d.Row("mac").Int("id", int64(n.ID)).Bool("ap", n.IsAP).Pair("ch", int64(n.channel.Center), int64(n.channel.Width)).
		Float("pwr", n.Power).Int("st", int64(n.state)).Int("cw", int64(n.cw)).Int("slots", int64(n.slotsLeft)).
		Int("retries", int64(n.retries)).Uint("seq", n.seq).Uint("txgen", n.txGen).
		Bool("down", n.down).Bool("hold", n.holdData).Bool("shed", n.shed).Int("maxq", int64(n.maxQueue)).End()
	d.Row("mac").Bool("pending", n.hasPending).Bool("cur", n.state == stTransmitting).Int("q", int64(len(n.queue))).End()
	if n.hasPending {
		writeFrame(d, "pendf", &n.pending)
	}
	for i := range n.queue {
		writeFrame(d, "qf", &n.queue[i])
	}
	s := &n.Stats
	d.Row("stats").Int("tx", int64(s.TxData)).Int("ok", int64(s.TxOK)).Int("drop", int64(s.TxDropped)).
		Int("bc", int64(s.TxBroadcast)).Int("rx", int64(s.RxData)).Int("rxb", s.RxBytes).Int("rxf", int64(s.RxFrames)).
		Int("ackto", int64(s.AckTimeouts)).Int("pay", s.PayloadRxOK).Int("qdrop", int64(s.QueueDropped)).
		Int("shed", int64(s.ShedDropped)).Int("lastrx", int64(s.LastRxAt)).Int("lasttx", int64(s.LastTxOKAt)).
		Int("del", int64(s.DeliveredData)).End()
}

// writeFrame renders one frame's identity fields (Meta payloads are
// protocol state digested by their owning layer).
func writeFrame(d *checkpoint.Digest, tag string, f *phy.Frame) {
	d.Row(tag).Int("kind", int64(f.Kind)).Int("src", int64(f.Src)).Int("dst", int64(f.Dst)).
		Int("bytes", int64(f.Bytes)).Uint("seq", f.Seq).End()
}
