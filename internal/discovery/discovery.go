package discovery

import (
	"time"

	"whitefi/internal/mac"
	"whitefi/internal/phy"
	"whitefi/internal/radio"
	"whitefi/internal/sift"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// DefaultDwell is the time spent per scan or per decode attempt: long
// enough to observe at least two 100 ms beacon intervals.
const DefaultDwell = 250 * time.Millisecond

// Prober is the device-side state a discovery algorithm drives: the
// engine (for virtual time), the SIFT scanner, and the client's own
// spectrum map (incumbent-occupied channels are never scanned). Each
// SIFT scan and each decode attempt consumes one dwell of virtual time.
type Prober struct {
	Eng     *sim.Engine
	Air     *mac.Air
	Scanner *radio.Scanner
	// Map is the client's spectrum map; occupied channels are skipped.
	Map spectrum.Map

	// Stats
	Scans   int // SIFT scans performed
	Decodes int // transceiver tune-and-listen attempts
}

// advance runs the simulation forward one dwell and returns the window
// that elapsed.
func (p *Prober) advance() (from, to time.Duration) {
	from = p.Eng.Now()
	to = from + DefaultDwell
	p.Eng.RunUntil(to)
	return from, to
}

// SIFTScan spends one dwell scanning the 8 MHz band at UHF channel u and
// reports whether a WhiteFi transmitter overlapping the band was
// detected, and at which width.
func (p *Prober) SIFTScan(u spectrum.UHF) (bool, spectrum.Width) {
	p.Scans++
	from, to := p.advance()
	res := p.Scanner.Scan(u, from, to)
	if len(res.Detections) == 0 {
		return false, 0
	}
	return true, res.Detections[0].Width
}

// TryDecode spends one dwell with the transceiver tuned to channel ch
// and reports whether an AP beacon was decodable there: a beacon
// transmission on exactly that channel, received above the decode
// threshold.
func (p *Prober) TryDecode(ch spectrum.Channel) bool {
	p.Decodes++
	from, to := p.advance()
	return p.beaconIn(ch, from, to)
}

// ConfirmDecode checks for a decodable beacon on ch over the window that
// just elapsed, without consuming additional time: the transceiver is a
// second radio and can tune while the scanner works, so a candidate
// whose center frequency is already known (L-SIFT's case) is confirmed
// in the course of normal association rather than with a dedicated
// listen dwell.
func (p *Prober) ConfirmDecode(ch spectrum.Channel) bool {
	to := p.Eng.Now()
	from := to - DefaultDwell
	if from < 0 {
		from = 0
	}
	return p.beaconIn(ch, from, to)
}

func (p *Prober) beaconIn(ch spectrum.Channel, from, to time.Duration) bool {
	found := false
	// Windowed query: only the dwell's transmissions on ch's center
	// partition are visited, not the full history.
	p.Air.ForEachCenterOverlapping(ch.Center, from, to, func(tx *mac.Transmission) {
		if found || tx.Frame.Kind != phy.KindBeacon || tx.Channel != ch {
			return
		}
		if tx.Start < from || tx.End > to {
			return
		}
		if p.Air.RxPowerOf(tx, p.Scanner.ID) >= mac.NoiseFloorDBm+10 {
			found = true
		}
	})
	return found
}

// Elapsed returns total virtual time consumed so far by this prober.
func (p *Prober) Elapsed() time.Duration { return p.Eng.Now() }

// Result is the outcome of a discovery run.
type Result struct {
	Channel spectrum.Channel
	Found   bool
	Elapsed time.Duration
	Scans   int
	Decodes int
}

func (p *Prober) result(ch spectrum.Channel, found bool, t0 time.Duration) Result {
	return Result{Channel: ch, Found: found, Elapsed: p.Eng.Now() - t0, Scans: p.Scans, Decodes: p.Decodes}
}

// candidateChannels lists the (F, W) combinations the client considers:
// every valid channel whose span is free in the client's map.
func (p *Prober) candidateChannels() []spectrum.Channel {
	var out []spectrum.Channel
	for _, c := range spectrum.AllChannels() {
		if p.Map.ChannelFree(c) {
			out = append(out, c)
		}
	}
	return out
}

// Baseline is the non-SIFT discovery algorithm: tune the transceiver to
// each possible (F, W) combination in turn and listen for beacons. This
// is the comparison point of Figures 8 and 9.
func Baseline(p *Prober) Result {
	t0 := p.Eng.Now()
	for _, c := range p.candidateChannels() {
		if p.TryDecode(c) {
			return p.result(c, true, t0)
		}
	}
	return p.result(spectrum.Channel{}, false, t0)
}

// LSIFT scans each free UHF channel in ascending frequency order with
// SIFT. Scanning from below means the first scan that sees the AP is at
// the lowest UHF channel of its span, so the center frequency is known
// immediately: Fc = Fs + W/2. A single decode confirms it (with a
// fallback to the two neighbouring centers, since the 8 MHz scan band
// slightly overhangs the 6 MHz channel).
func LSIFT(p *Prober) Result {
	t0 := p.Eng.Now()
	for u := spectrum.UHF(0); u < spectrum.NumUHF; u++ {
		if p.Map.Occupied(u) {
			continue
		}
		ok, w := p.SIFTScan(u)
		if !ok {
			continue
		}
		half := spectrum.UHF(w.Span() / 2)
		// Fc is known by construction (scanning from below): confirm
		// the primary candidate at no extra dwell; only the rare
		// off-by-one cases (the 8 MHz scan band overhangs the 6 MHz
		// channel) pay for a dedicated listen.
		primary := spectrum.Chan(u+half, w)
		if primary.Valid() && p.Map.ChannelFree(primary) && p.ConfirmDecode(primary) {
			return p.result(primary, true, t0)
		}
		for _, cand := range []spectrum.UHF{u + half + 1, u + half - 1} {
			ch := spectrum.Chan(cand, w)
			if !ch.Valid() || !p.Map.ChannelFree(ch) {
				continue
			}
			if p.TryDecode(ch) {
				return p.result(ch, true, t0)
			}
		}
	}
	return p.result(spectrum.Channel{}, false, t0)
}

// JSIFT implements Algorithm 1: a staggered search scanning first at the
// stride of 20 MHz channels (5 UHF channels), then 10 MHz (3), then
// 5 MHz (1), skipping channels already scanned. When SIFT detects a
// transmitter the center frequency is ambiguous within the detected
// width, so a second phase tries each candidate center until the beacon
// decodes.
func JSIFT(p *Prober) Result {
	t0 := p.Eng.Now()
	scanned := make(map[spectrum.UHF]bool)
	// Widest first.
	for j := len(spectrum.Widths) - 1; j >= 0; j-- {
		w := spectrum.Widths[j]
		stride := spectrum.UHF(w.Span())
		for cur := spectrum.UHF(0); cur < spectrum.NumUHF; cur++ {
			if scanned[cur] || p.Map.Occupied(cur) {
				continue
			}
			ok, dw := p.SIFTScan(cur)
			scanned[cur] = true
			if ok {
				if ch, found := p.jsiftEndgame(cur, dw); found {
					return p.result(ch, true, t0)
				}
				continue
			}
			// Jump: skip ahead by the width's span minus the one
			// channel the loop increment adds.
			cur += stride - 1
		}
	}
	return p.result(spectrum.Channel{}, false, t0)
}

// jsiftEndgame determines the transmitter's exact center frequency after
// a detection at channel cur with width w: the true center can be
// anywhere within Fs +/- W/2, so each candidate is tried in turn
// (Algorithm 1, second phase).
func (p *Prober) jsiftEndgame(cur spectrum.UHF, w spectrum.Width) (spectrum.Channel, bool) {
	half := spectrum.UHF(w.Span() / 2)
	// The scan-center candidate is confirmed for free (the transceiver
	// tunes while the scanner works); every other candidate pays a
	// listen dwell. The 8 MHz scan band can also catch a transmitter
	// centered just outside the nominal span, so the candidate set is
	// widened by one.
	center := spectrum.Chan(cur, w)
	if center.Valid() && p.Map.ChannelFree(center) && p.ConfirmDecode(center) {
		return center, true
	}
	for k := -half - 1; k <= half+1; k++ {
		if k == 0 {
			continue
		}
		ch := spectrum.Chan(cur+k, w)
		if !ch.Valid() || !p.Map.ChannelFree(ch) {
			continue
		}
		if p.TryDecode(ch) {
			return ch, true
		}
	}
	return spectrum.Channel{}, false
}

// ExpectedScansLSIFT returns the analytical expected SIFT scans for
// L-SIFT over nc searchable channels: nc/2.
func ExpectedScansLSIFT(nc int) float64 { return float64(nc) / 2 }

// ExpectedScansJSIFT returns the paper's analytical expectation for
// J-SIFT over nc searchable channels with nw widths:
// (nc + 2^(nw-1) + (nw-1)/2) / nw.
func ExpectedScansJSIFT(nc, nw int) float64 {
	return (float64(nc) + float64(int(1)<<(nw-1)) + float64(nw-1)/2) / float64(nw)
}

// BeaconAP runs a WhiteFi-style beaconing AP for discovery experiments:
// a beacon every interval through the normal CSMA/CA path, each followed
// one SIFS later by a CTS-to-self so SIFT can fingerprint it.
type BeaconAP struct {
	Node     *mac.Node
	Interval time.Duration

	eng     *sim.Engine
	running bool
}

// NewBeaconAP creates a beaconing AP on channel ch and starts it.
func NewBeaconAP(eng *sim.Engine, air *mac.Air, id int, ch spectrum.Channel, interval time.Duration) *BeaconAP {
	n := mac.NewNode(eng, air, id, ch, true)
	b := &BeaconAP{Node: n, Interval: interval, eng: eng, running: true}
	n.OnSent = func(f phy.Frame) {
		if f.Kind == phy.KindBeacon {
			eng.After(phy.SIFS(n.Channel().Width), func() {
				n.SendImmediate(phy.CTSFrame(n.ID))
			})
		}
	}
	b.tick()
	return b
}

// Stop halts beaconing.
func (b *BeaconAP) Stop() { b.running = false }

func (b *BeaconAP) tick() {
	if !b.running {
		return
	}
	b.Node.Send(phy.BeaconFrame(b.Node.ID, nil))
	b.eng.After(b.Interval, b.tick)
}

// ChirpValue derives the time-domain code a chirping node uses from its
// SSID hash (see sift chirp coding).
func ChirpValue(ssid string) int {
	h := uint32(2166136261)
	for i := 0; i < len(ssid); i++ {
		h ^= uint32(ssid[i])
		h *= 16777619
	}
	return int(h % uint32(sift.ChirpMaxValue+1))
}
