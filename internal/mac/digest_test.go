package mac

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/phy"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// refAirDigest is the fmt rendering that Air.DigestState replaced, kept
// as the reference its bytes must equal. It reads positions and log
// sources through the slot table: the placed ids in ascending order,
// and each row's source id as the int32 the log column once held.
func refAirDigest(a *Air, w io.Writer) {
	c := a.Counters
	fmt.Fprintf(w, "air launches=%d delivered=%d below=%d half=%d coll=%d filter=%d nextuid=%d log=%d arena=%d/%d\n",
		c.Launches, c.Delivered, c.BelowFloor, c.HalfDuplex, c.Collisions, c.FilterDrops,
		a.nextUID, len(a.logStart), a.ArenaLive(), a.ArenaCap())
	var ids []int
	for s, id := range a.slotID {
		if a.slotPlaced[s] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		p := a.slotPos[a.slotOf[id]]
		fmt.Fprintf(w, "pos id=%d x=%v y=%v\n", id, p.X, p.Y)
	}
	for _, n := range a.nodes {
		fmt.Fprintf(w, "node id=%d ch=%d/%d ap=%t sensed=%d txuntil=%d span=%v\n",
			n.id, n.channel.Center, n.channel.Width, n.isAP, n.sensedCnt, int64(n.txUntil), n.span)
	}
	for _, at := range a.active {
		tx := at.tx
		fmt.Fprintf(w, "active uid=%d src=%d ch=%d/%d start=%d end=%d pwr=%v nocs=%t sensed=%d\n",
			tx.UID, tx.Src, tx.Channel.Center, tx.Channel.Width,
			int64(tx.Start), int64(tx.End), tx.PowerDB, tx.NoCS, len(at.sensed))
	}
	for i := range a.logStart {
		f := a.logFrame[i]
		fmt.Fprintf(w, "tx uid=%d src=%d ch=%d/%d start=%d end=%d pwr=%v nocs=%t x=%v y=%v kind=%d dst=%d bytes=%d seq=%d\n",
			a.logUID[i], int32(a.slotID[a.logSrc[i]]), a.logCh[i].Center, a.logCh[i].Width,
			int64(a.logStart[i]), int64(a.logEnd[i]), a.logPower[i], a.logNoCS[i],
			a.logSrcPos[i].X, a.logSrcPos[i].Y, f.Kind, f.Dst, f.Bytes, f.Seq)
	}
}

// refNodeDigest is the fmt rendering that Node.DigestState replaced.
func refNodeDigest(n *Node, w io.Writer) {
	fmt.Fprintf(w, "mac id=%d ap=%t ch=%d/%d pwr=%v st=%d cw=%d slots=%d retries=%d seq=%d txgen=%d down=%t hold=%t shed=%t maxq=%d\n",
		n.ID, n.IsAP, n.channel.Center, n.channel.Width, n.Power,
		n.state, n.cw, n.slotsLeft, n.retries, n.seq, n.txGen,
		n.down, n.holdData, n.shed, n.maxQueue)
	fmt.Fprintf(w, "mac pending=%t cur=%t q=%d\n", n.hasPending, n.state == stTransmitting, len(n.queue))
	if n.hasPending {
		refWriteFrame(w, "pendf", n.pending)
	}
	for _, f := range n.queue {
		refWriteFrame(w, "qf", f)
	}
	s := n.Stats
	fmt.Fprintf(w, "stats tx=%d ok=%d drop=%d bc=%d rx=%d rxb=%d rxf=%d ackto=%d pay=%d qdrop=%d shed=%d lastrx=%d lasttx=%d del=%d\n",
		s.TxData, s.TxOK, s.TxDropped, s.TxBroadcast, s.RxData, s.RxBytes, s.RxFrames,
		s.AckTimeouts, s.PayloadRxOK, s.QueueDropped, s.ShedDropped,
		int64(s.LastRxAt), int64(s.LastTxOKAt), s.DeliveredData)
}

// refWriteFrame is the fmt rendering that writeFrame replaced.
func refWriteFrame(w io.Writer, tag string, f phy.Frame) {
	fmt.Fprintf(w, "%s kind=%d src=%d dst=%d bytes=%d seq=%d\n", tag, f.Kind, f.Src, f.Dst, f.Bytes, f.Seq)
}

// digestText renders write through a checkpoint.Digest.
func digestText(write func(*checkpoint.Digest)) []byte {
	var b bytes.Buffer
	d := checkpoint.NewDigest(&b)
	write(d)
	d.Flush()
	return b.Bytes()
}

// sameText fails the test at the first line where got and want differ.
func sameText(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for k := range wl {
		if k >= len(gl) || !bytes.Equal(gl[k], wl[k]) {
			g := []byte("<missing>")
			if k < len(gl) {
				g = gl[k]
			}
			t.Fatalf("%s: line %d:\n got %q\nwant %q", name, k, g, wl[k])
		}
	}
	t.Fatalf("%s: %d extra bytes after the reference", name, len(got)-len(want))
}

var (
	digestEdgeFloats = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -2.2250738585072014e-308, 1e21, -3.5e21, 1e20, math.MaxFloat64, 0.0001, 1e-5, 20, -95.5}
	digestEdgeInts = []int64{0, -1, 1, 99, 100, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	// digestSpans are sensed spans of every length, including UHF
	// indices outside the band (their TV numbers still render).
	digestSpans = [][]spectrum.UHF{nil, {}, {7}, {3, 4, 5}, spectrum.Chan(14, spectrum.W20).Span(), {-1, 30, 1000}}
)

func digestFloat(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return digestEdgeFloats[r.Intn(len(digestEdgeFloats))]
	case 1:
		return math.Float64frombits(r.Uint64())
	}
	return (r.Float64() - 0.5) * 5000
}

func digestInt(r *rand.Rand) int64 {
	if r.Intn(2) == 0 {
		return digestEdgeInts[r.Intn(len(digestEdgeInts))]
	}
	return int64(r.Uint64()) >> r.Intn(64)
}

func digestUint(r *rand.Rand) uint64 {
	if r.Intn(4) == 0 {
		return math.MaxUint64
	}
	return r.Uint64() >> r.Intn(64)
}

func digestChannel(r *rand.Rand) spectrum.Channel {
	return spectrum.Channel{Center: spectrum.UHF(digestInt(r)), Width: spectrum.Width(digestInt(r))}
}

func digestFrame(r *rand.Rand) phy.Frame {
	return phy.Frame{Kind: phy.FrameKind(digestInt(r)), Src: int(digestInt(r)), Dst: int(digestInt(r)),
		Bytes: int(digestInt(r)), Seq: digestUint(r)}
}

// appendLogRow appends tx to the log columns directly, bypassing
// record's partitions, so a row may hold any field values at all.
func appendLogRow(a *Air, tx *Transmission) {
	a.logStart = append(a.logStart, tx.Start)
	a.logEnd = append(a.logEnd, tx.End)
	a.logCh = append(a.logCh, tx.Channel)
	a.logPower = append(a.logPower, tx.PowerDB)
	a.logSrcPos = append(a.logSrcPos, tx.SrcPos)
	a.logSrc = append(a.logSrc, a.slotFor(tx.Src))
	a.logUID = append(a.logUID, tx.UID)
	a.logNoCS = append(a.logNoCS, tx.NoCS)
	a.logFrame = append(a.logFrame, tx.Frame)
}

func digestTx(r *rand.Rand, src int, pos Position) *Transmission {
	return &Transmission{Src: src, Channel: digestChannel(r), Frame: digestFrame(r),
		Start: time.Duration(digestInt(r)), End: time.Duration(digestInt(r)), PowerDB: digestFloat(r),
		NoCS: r.Intn(2) == 0, UID: digestUint(r), SrcPos: pos}
}

// randomAir builds a medium whose every digested field holds a random
// or edge value. Log sources repeat with the same and with changed
// positions (a -0 where a +0 was), as a log of moving nodes does.
func randomAir(r *rand.Rand) *Air {
	a := NewAir(sim.New(1))
	a.Counters = AirCounters{digestInt(r), digestInt(r), digestInt(r), digestInt(r), digestInt(r), digestInt(r)}
	a.nextUID = digestUint(r)
	for k := r.Intn(6); k > 0; k-- {
		s := a.slotFor(int(digestInt(r)))
		a.slotPos[s] = Position{digestFloat(r), digestFloat(r)}
		a.slotPlaced[s] = true
	}
	for k := r.Intn(5); k > 0; k-- {
		a.nodes = append(a.nodes, &airNode{id: int(digestInt(r)), span: digestSpans[r.Intn(len(digestSpans))],
			channel: digestChannel(r), sensedCnt: int(digestInt(r)), txUntil: time.Duration(digestInt(r)), isAP: r.Intn(2) == 0})
	}
	for k := r.Intn(4); k > 0; k-- {
		a.active = append(a.active, activeTx{tx: digestTx(r, int(digestInt(r)), Position{digestFloat(r), digestFloat(r)}),
			sensed: make([]int32, r.Intn(4))})
	}
	a.txSlots = make([]*Transmission, r.Intn(9))
	a.txFreeList = make([]int32, r.Intn(len(a.txSlots)+1))
	srcs := []int{int(digestInt(r)), int(digestInt(r)), 7}
	at := map[int]Position{}
	for k := r.Intn(40); k > 0; k-- {
		src := srcs[r.Intn(len(srcs))]
		p, ok := at[src]
		switch {
		case !ok || r.Intn(4) == 0:
			p = Position{digestFloat(r), digestFloat(r)}
		case r.Intn(4) == 0:
			p.X = math.Copysign(p.X, -p.X) // same value under ==, other bits
		}
		at[src] = p
		appendLogRow(a, digestTx(r, src, p))
	}
	return a
}

// TestAirDigestMatchesFmt: over media whose fields hold random and
// edge values, Air.DigestState renders exactly the former fmt bytes.
func TestAirDigestMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := randomAir(r)
		var want bytes.Buffer
		refAirDigest(a, &want)
		sameText(t, fmt.Sprintf("medium %d", i), digestText(a.DigestState), want.Bytes())
	}
}

// TestNodeDigestMatchesFmt: over nodes whose fields hold random and
// edge values, Node.DigestState renders exactly the former fmt bytes.
func TestNodeDigestMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		n := &Node{ID: int(digestInt(r)), IsAP: r.Intn(2) == 0, Power: digestFloat(r), channel: digestChannel(r),
			maxQueue: int(digestInt(r)), shed: r.Intn(2) == 0, down: r.Intn(2) == 0, holdData: r.Intn(2) == 0,
			state: dcfState(r.Intn(6)), cw: int(digestInt(r)), slotsLeft: int(digestInt(r)), retries: int(digestInt(r)),
			seq: digestUint(r), txGen: digestUint(r), pending: digestFrame(r), hasPending: r.Intn(2) == 0}
		for k := r.Intn(4); k > 0; k-- {
			n.queue = append(n.queue, digestFrame(r))
		}
		n.Stats = Stats{int(digestInt(r)), int(digestInt(r)), int(digestInt(r)), int(digestInt(r)), int(digestInt(r)),
			digestInt(r), int(digestInt(r)), int(digestInt(r)), digestInt(r), int(digestInt(r)), int(digestInt(r)),
			time.Duration(digestInt(r)), time.Duration(digestInt(r)), int(digestInt(r))}
		var want bytes.Buffer
		refNodeDigest(n, &want)
		sameText(t, fmt.Sprintf("node %d", i), digestText(n.DigestState), want.Bytes())
	}
}

// TestAirDigestWorldMatchesFmt: on the randomized worlds of
// worldEvents — moving nodes, retunes, churn, in-flight transmissions —
// the medium renders the former fmt bytes at every sampled instant.
func TestAirDigestWorldMatchesFmt(t *testing.T) {
	for _, m := range worldModels {
		for _, churn := range []bool{false, true} {
			name := fmt.Sprintf("%s/churn%v", m.name, churn)
			checked, rows := 0, 0
			cfg := worldConfig{churn: churn, probe: func(a *Air) {
				for _, at := range []time.Duration{0, 333 * time.Millisecond, time.Second, 1500 * time.Millisecond, 2050 * time.Millisecond} {
					a.Eng.Schedule(at, func() {
						var want bytes.Buffer
						refAirDigest(a, &want)
						sameText(t, fmt.Sprintf("%s@%v", name, at), digestText(a.DigestState), want.Bytes())
						checked++
						rows += a.LogSize()
					})
				}
			}}
			worldEvents(m.prop, 3, cfg)
			if checked != 5 || rows == 0 {
				t.Fatalf("%s: compared %d instants holding %d log rows", name, checked, rows)
			}
		}
	}
}

// TestAirDigestPosRows pins which ids the medium's pos digest rows
// list: the ids SetPosition has moved at least once, wherever they
// stand now. An id first placed where it already stands (a fresh id at
// the origin), an attached id never placed, a transmitter never seen
// before it launched and a never-seen RxPowerOf destination are not
// listed; an id moved back to the origin is.
func TestAirDigestPosRows(t *testing.T) {
	eng := sim.New(1)
	a := NewAir(eng)
	a.Prop = LogDistance{}
	a.SetPosition(7, Position{X: 120, Y: -35.5})
	a.SetPosition(3, Position{X: 40, Y: 10})
	a.SetPosition(3, Position{})
	a.SetPosition(9, Position{})
	NewNode(eng, a, 5, spectrum.Chan(4, spectrum.W5), true)
	tx := a.Transmit(11, spectrum.Chan(4, spectrum.W5), phy.DataFrame(11, phy.Broadcast, 300), DefaultTxPowerDBm, true)
	a.RxPowerOf(tx, 13)
	var rows []string
	for _, line := range strings.Split(string(digestText(a.DigestState)), "\n") {
		if strings.HasPrefix(line, "pos ") {
			rows = append(rows, line)
		}
	}
	want := []string{"pos id=3 x=0 y=0", "pos id=7 x=120 y=-35.5"}
	if !slices.Equal(rows, want) {
		t.Fatalf("pos rows = %q, want %q", rows, want)
	}
}

// digestBenchAir returns a medium holding rows log rows of a
// city-like mix: 300 sources at fixed positions (20 dBm, 5 MHz),
// unicast data and ACKs.
func digestBenchAir(rows int) *Air {
	r := rand.New(rand.NewSource(16))
	a := NewAir(sim.New(16))
	pos := make([]Position, 300)
	for i := range pos {
		pos[i] = Position{X: r.Float64() * 3000, Y: r.Float64() * 3000}
		a.SetPosition(1000+i, pos[i])
	}
	at := time.Duration(0)
	for i := 0; i < rows; i++ {
		src := r.Intn(len(pos))
		f := phy.DataFrame(1000+src, 1000+r.Intn(len(pos)), 1000)
		if i%2 == 1 {
			f = phy.ACKFrame(1000+src, 1000+r.Intn(len(pos)))
		}
		f.Seq = uint64(i)
		at += time.Duration(r.Intn(50000))
		a.nextUID++
		a.record(&Transmission{Src: 1000 + src, Channel: spectrum.Chan(spectrum.UHF(r.Intn(spectrum.NumUHF)), spectrum.W5),
			Frame: f, Start: at, End: at + 230*time.Microsecond, PowerDB: DefaultTxPowerDBm, UID: a.nextUID, SrcPos: pos[src]})
	}
	return a
}

// countWriter counts the bytes written to it.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

// BenchmarkAirDigestState digests a 120k-row medium log, the size of a
// dense city's at its midpoint, the way checkpoint.Capture does.
func BenchmarkAirDigestState(b *testing.B) {
	a := digestBenchAir(120_000)
	var n countWriter
	d := checkpoint.NewDigest(&n)
	a.DigestState(d)
	d.Flush()
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSection = checkpoint.HashSection("air", 1, a.DigestState)
	}
}

var benchSection checkpoint.Section

// TestAirDigestAllocsFlat: digesting a medium allocates the same
// whatever the length of its log — no allocation per row.
func TestAirDigestAllocsFlat(t *testing.T) {
	allocs := func(rows int) float64 {
		a := digestBenchAir(rows)
		return testing.AllocsPerRun(3, func() { benchSection = checkpoint.HashSection("air", 1, a.DigestState) })
	}
	small, large := allocs(1_000), allocs(100_000)
	if large > small {
		t.Fatalf("Air digest allocations grow with the log: %v at 1k rows, %v at 100k", small, large)
	}
}
