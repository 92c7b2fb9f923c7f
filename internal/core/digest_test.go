package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/spectrum"
	"whitefi/internal/trace"
)

// refAPDigest is the fmt rendering that AP.DigestState replaced, kept
// verbatim as the reference its bytes must equal.
func refAPDigest(ap *AP, w io.Writer) {
	cur, hasCur := ap.selector.Current()
	fmt.Fprintf(w, "ap id=%d cur=%d/%d has=%t backup=%d/%d ssid=%d run=%t\n",
		ap.ID, cur.Center, cur.Width, hasCur, ap.backup.Center, ap.backup.Width, ap.ssidCode, ap.running)
	fmt.Fprintf(w, "ap onbackup=%t collecting=%t retries=%d sensedinc=%t maps=%d seen=%d switchgen=%d pending=%t lastswitch=%d\n",
		ap.onBackup, ap.collecting, ap.collectRetries, ap.apSensedIncumbent,
		len(ap.chirpMaps), len(ap.chirpSeen), ap.switchGen, ap.switchPending, int64(ap.lastSwitchDone))
	fmt.Fprintf(w, "ap inc=%d crashed=%t stalled=%d reconn=%d crashes=%d stalls=%d\n",
		ap.incarnation, ap.crashed, int64(ap.stalledUntil), ap.Reconnections, ap.Crashes, ap.Stalls)
	fmt.Fprintf(w, "ap lastgood=%v prev=%d/%d revert=%t base=%d baseat=%d\n",
		ap.lastGoodput, ap.prevChannel.Center, ap.prevChannel.Width,
		ap.pendingRevert, ap.goodputBase, int64(ap.goodputBaseAt))
	ids := make([]int, 0, len(ap.clients))
	for id := range ap.clients {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		cs := ap.clients[id]
		fmt.Fprintf(w, "apclient id=%d hasobs=%t lastseen=%d\n", cs.id, cs.hasObs, int64(cs.lastSeen))
	}
	for _, s := range ap.Switches {
		fmt.Fprintf(w, "switch at=%d from=%d/%d to=%d/%d reason=%d metric=%v\n",
			int64(s.At), s.From.Center, s.From.Width, s.To.Center, s.To.Width, s.Reason, s.Metric)
	}
}

// refClientDigest is the fmt rendering that Client.DigestState
// replaced. Outage lines come from OutageRecord.Line, whose own test
// holds it to its former fmt rendering.
func refClientDigest(c *Client, w io.Writer) {
	fmt.Fprintf(w, "client id=%d ap=%d assoc=%t apch=%d/%d backup=%d/%d beacon=%d ssid=%d run=%t\n",
		c.ID, c.apID, c.associated, c.apChannel.Center, c.apChannel.Width,
		c.backup.Center, c.backup.Width, int64(c.lastBeacon), c.ssidCode, c.running)
	fmt.Fprintf(w, "client onbackup=%t chirps=%d open=%t start=%d cause=%q hops=%d gen=%d\n",
		c.onBackup, c.ChirpsSent(), c.outOpen, int64(c.outStart), c.outCause, len(c.outPath), c.episodeGen)
	fmt.Fprintf(w, "client reconn=%d disc=%d rdv=%d\n",
		c.Reconnections, c.Disconnects, c.RendezvousAttempts)
	for _, o := range c.Outages {
		fmt.Fprintf(w, "%s\n", o.Line())
	}
}

// digestText renders write through a checkpoint.Digest.
func digestText(write func(*checkpoint.Digest)) []byte {
	var b bytes.Buffer
	d := checkpoint.NewDigest(&b)
	write(d)
	d.Flush()
	return b.Bytes()
}

var (
	digestEdgeFloats = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, 1e21, -4e22, 1e20, 0.0001, 1e-5, 1234.5678}
	digestEdgeInts = []int64{0, -1, 1, 100, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	// digestCauses need escaping under %q or hold non-ASCII text.
	digestCauses = []string{"", "mic", "beacon-timeout", "ap-crash", "quote\"d", `back\slash`, "tab\tnl\n",
		"\x00\x1f\x7f", "ünïcödé", "日本語", "\xff\xfe", "\u2028"}
)

func digestFloat(r *rand.Rand) float64 {
	if r.Intn(2) == 0 {
		return digestEdgeFloats[r.Intn(len(digestEdgeFloats))]
	}
	return math.Float64frombits(r.Uint64())
}

func digestInt(r *rand.Rand) int {
	if r.Intn(2) == 0 {
		return int(digestEdgeInts[r.Intn(len(digestEdgeInts))])
	}
	return int(int64(r.Uint64()) >> r.Intn(64))
}

func digestChannel(r *rand.Rand) spectrum.Channel {
	return spectrum.Channel{Center: spectrum.UHF(digestInt(r)), Width: spectrum.Width(digestInt(r))}
}

// TestAPDigestMatchesFmt: APs whose digested fields hold random and
// edge values render exactly the former fmt bytes.
func TestAPDigestMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		ap := &AP{ID: digestInt(r), clients: map[int]*clientState{}, backup: digestChannel(r), ssidCode: digestInt(r),
			onBackup: r.Intn(2) == 0, collecting: r.Intn(2) == 0, collectRetries: digestInt(r),
			apSensedIncumbent: r.Intn(2) == 0, chirpMaps: make([]spectrum.Map, r.Intn(3)), chirpSeen: map[int]bool{},
			switchGen: digestInt(r), switchPending: r.Intn(2) == 0, lastSwitchDone: time.Duration(digestInt(r)),
			incarnation: digestInt(r), crashed: r.Intn(2) == 0, stalledUntil: time.Duration(digestInt(r)),
			lastGoodput: digestFloat(r), prevChannel: digestChannel(r), pendingRevert: r.Intn(2) == 0,
			goodputBase: int64(digestInt(r)), goodputBaseAt: time.Duration(digestInt(r)),
			Reconnections: digestInt(r), Crashes: digestInt(r), Stalls: digestInt(r), running: r.Intn(2) == 0}
		if r.Intn(2) == 0 {
			ap.selector.ForceChannel(digestChannel(r))
		}
		for k := r.Intn(4); k > 0; k-- {
			ap.chirpSeen[digestInt(r)] = true
			id := digestInt(r)
			ap.clients[id] = &clientState{id: digestInt(r), hasObs: r.Intn(2) == 0, lastSeen: time.Duration(digestInt(r))}
		}
		for k := r.Intn(4); k > 0; k-- {
			ap.Switches = append(ap.Switches, SwitchEvent{At: time.Duration(digestInt(r)), From: digestChannel(r),
				To: digestChannel(r), Reason: SwitchReason(digestInt(r)), Metric: digestFloat(r)})
		}
		var want bytes.Buffer
		refAPDigest(ap, &want)
		if got := digestText(ap.DigestState); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AP %d:\n got %q\nwant %q", i, got, want.Bytes())
		}
	}
}

// TestClientDigestMatchesFmt: clients whose digested fields hold random
// and edge values — outage causes needing escapes or holding non-ASCII
// text among them — render exactly the former fmt bytes.
func TestClientDigestMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		c := &Client{ID: digestInt(r), apID: digestInt(r), associated: r.Intn(2) == 0, apChannel: digestChannel(r),
			backup: digestChannel(r), lastBeacon: time.Duration(digestInt(r)), ssidCode: digestInt(r),
			running: r.Intn(2) == 0, onBackup: r.Intn(2) == 0, chirpsSent: digestInt(r), outOpen: r.Intn(2) == 0,
			outStart: time.Duration(digestInt(r)), outCause: digestCauses[r.Intn(len(digestCauses))],
			outPath: make([]string, r.Intn(4)), episodeGen: digestInt(r), Reconnections: digestInt(r),
			Disconnects: digestInt(r), RendezvousAttempts: digestInt(r)}
		for k := r.Intn(3); k > 0; k-- {
			c.Outages = append(c.Outages, trace.OutageRecord{Node: digestInt(r), Cause: digestCauses[r.Intn(len(digestCauses))],
				StartMs: digestFloat(r), EndMs: digestFloat(r), DurMs: digestFloat(r), Path: "ch3/5MHz>ch12/5MHz"})
		}
		var want bytes.Buffer
		refClientDigest(c, &want)
		if got := digestText(c.DigestState); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("client %d:\n got %q\nwant %q", i, got, want.Bytes())
		}
	}
}
