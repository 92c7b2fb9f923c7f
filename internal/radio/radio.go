package radio

import (
	"math"
	"math/rand"
	"time"

	"whitefi/internal/assign"
	"whitefi/internal/incumbent"
	"whitefi/internal/iq"
	"whitefi/internal/mac"
	"whitefi/internal/sift"
	"whitefi/internal/spectrum"
)

// Scanner is the secondary radio: it renders scan windows of the medium
// and runs SIFT over them. Scan windows are streamed through the SIFT
// detector in USRP-sized blocks from one reusable buffer, so a scan
// allocates only its result pulses no matter how long the window is.
type Scanner struct {
	// ID identifies the scanner's location for path loss.
	ID int
	// Cfg is the SIFT configuration (zero value = paper defaults).
	Cfg sift.Config
	// ExtraLossDB models a front-end attenuator (Figure 7 experiments).
	ExtraLossDB float64
	// Stats accumulates the scanner's cumulative work counters for the
	// observability layer; maintained inline, never reset by Scan.
	Stats ScannerStats

	renderer *iq.Renderer
	air      *mac.Air
	det      sift.Detector
}

// ScannerStats are the cumulative work counters of one Scanner:
// Scans counts scan windows rendered, Pulses and Detections the SIFT
// output volume, ChirpDecodes successfully decoded chirp values, and
// Calibrations threshold recalibrations (CalibrateFor and
// CalibrateForLink).
type ScannerStats struct {
	Scans        int64
	Pulses       int64
	Detections   int64
	ChirpDecodes int64
	Calibrations int64
}

// NewScanner creates a scanner at node id, with its own noise RNG.
func NewScanner(air *mac.Air, id int, rng *rand.Rand) *Scanner {
	r := iq.NewRenderer(air, id, rng)
	return &Scanner{ID: id, renderer: r, air: air}
}

// CalibrateFor sets the SIFT threshold for the weakest transmitter the
// scanner must still detect, given the power at which its signal
// arrives here (use mac.Air.RxPower for a placed transmitter). Under
// spatial propagation pulse heights fall off with distance; the default
// threshold is calibrated for near-full-power signals and would miss a
// transmitter near the edge of the scanner's range. The calibrated
// threshold stays above the worst-case rendered noise amplitude, so the
// sparse scan path remains valid.
func (s *Scanner) CalibrateFor(minRxDBm float64) {
	s.Stats.Calibrations++
	s.Cfg.Threshold = sift.ThresholdFor(iq.AmplitudeAt(minRxDBm), iq.MaxNoiseAmplitude())
}

// CalibrateForLink calibrates the SIFT threshold for transmitter src as
// currently heard at this scanner's position, from the medium's live
// geometry. Mobility epochs re-invoke it (via a dynamics.Updater hook)
// so the threshold tracks the link budget as nodes move: a returning
// roamer's chirps become detectable again exactly when its link budget
// clears the noise ceiling.
func (s *Scanner) CalibrateForLink(src int, txPowerDBm float64) {
	s.CalibrateFor(s.air.RxPower(src, s.ID, txPowerDBm))
}

// ScanResult is the SIFT output of one scan window on one UHF channel.
type ScanResult struct {
	Center     spectrum.UHF
	Window     time.Duration
	Pulses     []sift.Pulse
	Detections []sift.Detection
	// Airtime is the SIFT airtime-utilization estimate for the window.
	Airtime float64
}

// Scan renders the 8 MHz discovery band centered on UHF channel center
// over [from, to) and runs the SIFT pipeline on it. Any transmitter
// whose channel overlaps the scan band is visible — the property J-SIFT
// exploits.
func (s *Scanner) Scan(center spectrum.UHF, from, to time.Duration) ScanResult {
	return s.scan(center, from, to, iq.DiscoverySpanMHz)
}

// ScanChannel renders a 1 MHz band around the channel center — the
// configuration used to measure one UHF channel's airtime utilization
// without adjacent-channel leakage.
func (s *Scanner) ScanChannel(center spectrum.UHF, from, to time.Duration) ScanResult {
	return s.scan(center, from, to, iq.NarrowSpanMHz)
}

func (s *Scanner) scan(center spectrum.UHF, from, to time.Duration, spanMHz float64) ScanResult {
	s.renderer.ExtraLossDB = s.ExtraLossDB
	s.renderer.SpanMHz = spanMHz
	// Stream block-sized renders through the detector instead of
	// materializing the whole window: same pulses, O(block) memory.
	s.det.Reset(s.Cfg)
	push := func(block []float64) { s.det.Push(block) }
	window, threshold := s.Cfg.Effective()
	if threshold > iq.MaxNoiseAmplitude() {
		// Receiver noise can never cross this threshold, so stretches
		// with no transmission in the band need not be rendered or
		// scanned at all: only the padded active ranges are streamed.
		// The margin keeps every pulse edge (and the moving-average
		// refill after a skip) inside rendered samples.
		margin := 4*window + minSkipMargin
		s.renderer.EachActiveBlock(center, from, to, margin, push, s.det.SkipNoise)
	} else {
		s.renderer.EachBlock(center, from, to, push)
	}
	pulses := s.det.Finish()
	detections := sift.MatchExchanges(pulses)
	s.Stats.Scans++
	s.Stats.Pulses += int64(len(pulses))
	s.Stats.Detections += int64(len(detections))
	return ScanResult{
		Center:     center,
		Window:     to - from,
		Pulses:     pulses,
		Detections: detections,
		Airtime:    sift.AirtimeUtilization(pulses, to-from),
	}
}

// minSkipMargin pads the sparse-scan margin beyond the detector-window
// multiple, covering the minimum-pulse suppression lookahead.
const minSkipMargin = 8

// Chirps scans the given channel window and returns decoded chirp
// values. It uses the narrow per-channel span: chirps are 5 MHz frames
// centered on a UHF channel, and the wide discovery span would
// mis-attribute a chirp to the adjacent channel.
//
// Two classes of non-chirp pulses are filtered before decoding, both
// steady false-chirp sources on channels carrying other traffic:
//
//   - pulses clipped by the scan-window edges: a frame truncated by the
//     window boundary has an arbitrary measured length and decodes as a
//     random code;
//   - pulses with a close neighbor: fragments of a signal hovering at
//     the detection threshold (random lengths, micro-second gaps) and
//     SIFS-spaced data/ACK exchanges. A genuine chirp is a lone
//     broadcast — its nearest neighbor is a chirp period (or at least a
//     DIFS, 112 us at 5 MHz, when several chirpers share the channel)
//     away, comfortably above the isolation gap.
func (s *Scanner) Chirps(center spectrum.UHF, from, to time.Duration) []int {
	res := s.ScanChannel(center, from, to)
	win := to - from
	ps := res.Pulses
	var vals []int
	for i, p := range ps {
		if p.Start <= chirpEdgeGuard || p.End >= win-chirpEdgeGuard {
			continue
		}
		if i > 0 && p.Start-ps[i-1].End < chirpIsolationGap {
			continue
		}
		if i+1 < len(ps) && ps[i+1].Start-p.End < chirpIsolationGap {
			continue
		}
		if v, ok := sift.DecodeChirp(p.Duration()); ok {
			s.Stats.ChirpDecodes++
			vals = append(vals, v)
		}
	}
	return vals
}

// chirpEdgeGuard is how close to a scan-window edge a pulse boundary may
// sit before the pulse counts as clipped; it covers the moving-average
// settle time of the detector.
const chirpEdgeGuard = 8 * iq.SamplePeriod

// chirpIsolationGap is the minimum idle air a chirp candidate needs on
// both sides: above the SIFS of any width (data/ACK pairs rejected) and
// the few-sample gaps of threshold fragmentation, below the DIFS +
// backoff spacing of competing chirpers at the 5 MHz chirp width.
const chirpIsolationGap = 90 * time.Microsecond

// AirtimeSource produces per-UHF-channel airtime and AP-count estimates
// over a recent window. Two implementations exist: the SIFT scanner
// (faithful, used by the prototype experiments) and the ground-truth
// medium accounting (used by the large QualNet-style simulations, just
// as the paper's QualNet runs did not execute SIFT either). The sift
// package's tests verify the two agree within a few percent.
type AirtimeSource interface {
	// Measure fills airtime and AP counts for every UHF channel over
	// the window [from, to), excluding traffic from node exclude.
	Measure(from, to time.Duration, exclude int) (airtime [spectrum.NumUHF]float64, aps [spectrum.NumUHF]int)
}

// BeaconInterval is the WhiteFi AP beacon period: core's APs beacon at
// it (core.DefaultBeaconInterval), and SIFTAirtime counts APs by
// grouping pulse detections at this periodicity.
const BeaconInterval = 100 * time.Millisecond

// SIFTAirtime measures airtime by scanning each UHF channel with SIFT.
// The scan is performed over the same window for every channel (the
// prototype dwells on each channel in turn; observing the same recorded
// window per channel is equivalent for stationary traffic and keeps
// virtual-time bookkeeping simple).
type SIFTAirtime struct {
	Scanner *Scanner
}

// Measure implements AirtimeSource using the SIFT pipeline.
func (s *SIFTAirtime) Measure(from, to time.Duration, exclude int) (airtime [spectrum.NumUHF]float64, aps [spectrum.NumUHF]int) {
	for u := spectrum.UHF(0); u < spectrum.NumUHF; u++ {
		res := s.Scanner.ScanChannel(u, from, to)
		airtime[u] = res.Airtime
		aps[u] = sift.EstimateAPs(res.Detections, BeaconInterval, 5*time.Millisecond)
	}
	return airtime, aps
}

// TrueAirtime measures airtime and AP counts from the medium's ground
// truth. Exclude lists node ids whose traffic is ignored — a WhiteFi
// network excludes its own members, since MCham estimates the share
// left by *other* traffic.
//
// Observer, when set to a node id, makes the accounting
// receiver-relative: only transmissions that reach the observer's
// position above the carrier-sense threshold count, matching what that
// node's own scanner would measure. The zero value keeps the ideal
// (omniscient) accounting; under a flat medium the two are identical.
type TrueAirtime struct {
	Air      *mac.Air
	Exclude  map[int]bool
	Observer int

	// scratchEx is the reusable exclude set for Measure calls that add a
	// caller exclusion, so per-round observations do not allocate a map
	// each. ObservationAt only reads it during the call.
	scratchEx map[int]bool
}

func (t *TrueAirtime) observer() int {
	if t.Observer == 0 {
		return mac.IdealObserver
	}
	return t.Observer
}

// Measure implements AirtimeSource from medium accounting. The whole
// band is computed in one indexed-log sweep (mac.Air.ObservationAt)
// rather than one query per channel — the difference between O(window)
// and O(window × channels) per observation, which dense worlds issue
// once per AP per assignment round.
func (t *TrueAirtime) Measure(from, to time.Duration, exclude int) (airtime [spectrum.NumUHF]float64, aps [spectrum.NumUHF]int) {
	ex := t.Exclude
	if exclude >= 0 {
		if t.scratchEx == nil {
			t.scratchEx = make(map[int]bool, len(t.Exclude)+1)
		}
		clear(t.scratchEx)
		for k, v := range t.Exclude {
			t.scratchEx[k] = v
		}
		t.scratchEx[exclude] = true
		ex = t.scratchEx
	}
	return t.Air.ObservationAt(t.observer(), from, to, ex)
}

// Observe builds a full assign.Observation from an airtime source and
// the node's current incumbent map.
func Observe(src AirtimeSource, m spectrum.Map, from, to time.Duration, exclude int) assign.Observation {
	at, aps := src.Measure(from, to, exclude)
	return assign.Observation{Map: m, Airtime: at, APs: aps}
}

// Sniffer capture model (Figure 7): the probability that the Wi-Fi
// card's hardware decoder captures a packet, as a logistic function of
// SNR. Captures fall off smoothly — unlike SIFT, which applies a hard
// amplitude threshold and collapses sharply once the signal drops below
// it, but which keeps detecting corrupted packets SIFT-side well past
// the point where the decoder starts losing them.
const (
	// snifferCenterSNR is the SNR (dB) at which capture probability is
	// one half. Calibrated so the decoder starts losing packets while
	// SIFT (which needs only the amplitude envelope, not clean
	// symbols) still detects nearly all of them, and so the capture
	// ratio beyond SIFT's cliff sits near the paper's ~35%.
	snifferCenterSNR = 17.0
	// snifferScale controls the roll-off steepness (dB per logit).
	snifferScale = 1.5
)

// SnifferDecodeProb returns the capture probability at the given SNR.
func SnifferDecodeProb(snrDB float64) float64 {
	return 1 / (1 + math.Exp((snifferCenterSNR-snrDB)/snifferScale))
}

// SnifferCaptures draws whether one packet is captured at snrDB.
func SnifferCaptures(rng *rand.Rand, snrDB float64) bool {
	return rng.Float64() < SnifferDecodeProb(snrDB)
}

// SNRAt computes the SNR (dB) of a transmission received at power
// rxDBm against the receiver noise floor.
func SNRAt(rxDBm float64) float64 { return rxDBm - mac.NoiseFloorDBm }

// TVDetectDBm is the received power at which the prototype's scanner
// detects a TV carrier (Section 3).
const TVDetectDBm = -114.0

// IncumbentSensor fuses a node's static incumbent map (TV stations,
// location dependent) with the live state of wireless microphones and
// any spatially placed incumbent transmitters. The prototype's scanner
// detects TV at -114 dBm and mics at -110 dBm; the paper assumes
// reasonably accurate incumbent detection and so do we — detection
// latency comes from the caller's scan cadence, not from missed
// detections.
//
// Detection range is finite: a Station contributes to the map only when
// its carrier reaches Pos above DetectThresholdDBm under Prop, so two
// sensors of the same network at different positions genuinely see
// different white spaces. With no stations (or a nil/flat Prop and
// in-budget stations) the sensor reduces to the legacy Base+Mics view.
type IncumbentSensor struct {
	// Base is the static TV occupancy at this node's location.
	Base spectrum.Map
	// Mics are the microphones audible at this node.
	Mics []*incumbent.Mic

	// Pos is the sensor's (node's) position on the plane. Network
	// constructors adopt it as the node's medium position.
	Pos mac.Position
	// Stations are spatially placed incumbent transmitters; each
	// occupies its channel at this sensor iff audible from Pos.
	Stations []*incumbent.Station
	// Prop is the propagation model used for station audibility; keep
	// it the same model as the medium's. Nil means flat (always
	// audible).
	Prop mac.Propagation
	// DetectThresholdDBm is the detection sensitivity; 0 selects
	// TVDetectDBm.
	DetectThresholdDBm float64
}

func (s *IncumbentSensor) detectThreshold() float64 {
	if s.DetectThresholdDBm == 0 {
		return TVDetectDBm
	}
	return s.DetectThresholdDBm
}

// CurrentMap returns the node's spectrum map right now: the static base,
// every currently active microphone channel, and every audible station.
func (s *IncumbentSensor) CurrentMap() spectrum.Map {
	m := s.Base
	for _, mic := range s.Mics {
		if mic.Active() {
			m = m.SetOccupied(mic.Channel)
		}
	}
	if len(s.Stations) > 0 {
		m = incumbent.OccupancyAt(m, s.Stations, s.Pos, s.Prop, s.detectThreshold())
	}
	return m
}

// MicActiveOn reports whether an audible microphone is currently active
// on any UHF channel spanned by c.
func (s *IncumbentSensor) MicActiveOn(c spectrum.Channel) bool {
	for _, mic := range s.Mics {
		if mic.Active() && c.Contains(mic.Channel) {
			return true
		}
	}
	return false
}
