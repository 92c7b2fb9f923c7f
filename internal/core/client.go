package core

import (
	"math/rand"
	"strings"
	"time"

	"whitefi/internal/assign"
	"whitefi/internal/chirp"
	"whitefi/internal/discovery"
	"whitefi/internal/mac"
	"whitefi/internal/phy"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
	"whitefi/internal/trace"
)

// Chirp-recovery hardening parameters (see goToBackup and rotateBackup).
const (
	// chirpBackoffAfter is how many consecutive unanswered chirps the
	// fixed DefaultPeriod cadence is kept before exponential backoff
	// engages. Benign recoveries resolve well within this budget, so
	// the fast path is timing-identical to the unhardened protocol.
	chirpBackoffAfter = 6
	// chirpBackoffCap bounds the backed-off chirp period. It stays
	// under the AP's DefaultBackupScanPeriod so every scan window
	// still contains at least one chirp.
	chirpBackoffCap = 1600 * time.Millisecond
	// chirpJitterFrac is the uniform jitter fraction added to a
	// backed-off period, desynchronising chirpers that entered backoff
	// in lockstep.
	chirpJitterFrac = 0.25
	// rotateDwell is how long a disconnected client chirps on one
	// channel unanswered before rotating to the next rendezvous
	// candidate. It exceeds the AP's DefaultBackupScanPeriod by a
	// comfortable margin, so a live AP always gets a chance to find us
	// first.
	rotateDwell = 8 * time.Second
)

// Client is a WhiteFi client station.
type Client struct {
	ID  int
	Cfg Config

	eng     *sim.Engine
	air     *mac.Air
	Node    *mac.Node
	Scanner *radio.Scanner
	Sensor  *radio.IncumbentSensor
	// Airtime is the airtime source for this client's observations.
	Airtime radio.AirtimeSource

	apID       int
	associated bool
	apChannel  spectrum.Channel
	backup     spectrum.Channel
	lastBeacon time.Duration
	ssidCode   int

	onBackup bool
	chirper  *chirp.Chirper
	// chirpsSent accumulates Sent counts of retired chirpers (see
	// ChirpsSent).
	chirpsSent int
	// rng drives the client's own seeded choices (secondary-backup
	// picks, rotation order, chirp jitter) so its recovery realisation
	// is a pure function of (id, seed-independent construction), not of
	// whatever else consumes the engine RNG.
	rng *rand.Rand

	// Outage episode state (see openOutage/closeOutage).
	outOpen    bool
	outStart   time.Duration
	outCause   string
	outPath    []string
	episodeGen int // invalidates rotation timers of closed episodes

	// Reconnections counts recoveries from disconnection.
	Reconnections int
	// Disconnects counts entries into the disconnected state.
	Disconnects int
	// RendezvousAttempts counts retunes to a rendezvous channel while
	// disconnected (every hop of every outage's chirp path).
	RendezvousAttempts int
	// Outages records every completed disconnection episode, in order.
	Outages []trace.OutageRecord
	// OnOutage, when non-nil, is invoked for each completed episode —
	// the JSON-trace emission hook (event "outage").
	OnOutage func(trace.OutageRecord)

	running bool
}

// NewClient creates a client with its own incumbent sensor and attaches
// it to the medium on the AP's channel, then associates. The caller
// supplies the AP's current channel (as learned from discovery; see
// package discovery for the scan algorithms).
func NewClient(eng *sim.Engine, air *mac.Air, id int, cfg Config, sensor *radio.IncumbentSensor, ap *AP) *Client {
	cfg.fill()
	c := &Client{
		ID:      id,
		Cfg:     cfg,
		eng:     eng,
		air:     air,
		Scanner: radio.NewScanner(air, id, rand.New(rand.NewSource(int64(id)*104729+3))),
		Sensor:  sensor,
		apID:    ap.ID,
		rng:     rand.New(rand.NewSource(int64(id)*60013 + 17)),
	}
	c.ssidCode = discovery.ChirpValue(cfg.SSID)
	c.apChannel = ap.Channel()
	if sensor != nil {
		air.SetPosition(id, sensor.Pos)
	}
	c.Node = mac.NewNode(eng, air, id, c.apChannel, false)
	if cfg.Rand != nil {
		c.Node.SetRand(cfg.Rand(id))
	}
	c.Node.OnReceive = c.receive
	c.Airtime = &radio.TrueAirtime{Air: air, Exclude: ap.own, Observer: id}
	ap.RegisterOwn(id)
	c.lastBeacon = eng.Now()
	c.running = true
	c.watchMics()
	c.associate()
	eng.After(DefaultControlPeriod, c.controlTick)
	eng.After(DefaultBeaconTimeout/2, c.beaconWatchTick)
	return c
}

// Stop halts all client activity.
func (c *Client) Stop() { c.running = false }

// Associated reports whether the client currently believes it is
// associated with its AP.
func (c *Client) Associated() bool { return c.associated && !c.onBackup }

// Channel returns the client's current channel.
func (c *Client) Channel() spectrum.Channel { return c.Node.Channel() }

// OpenOutage returns the outage episode still in progress, if any: the
// record of a client that never made it back — Cause and Path filled,
// end fields zero. Scenario aggregates count these as orphans.
func (c *Client) OpenOutage() (trace.OutageRecord, bool) {
	if !c.outOpen {
		return trace.OutageRecord{}, false
	}
	return trace.OutageRecord{
		Event:   "outage",
		Node:    c.ID,
		Cause:   c.outCause,
		StartMs: float64(c.outStart) / float64(time.Millisecond),
		Path:    strings.Join(c.outPath, ">"),
	}, true
}

func (c *Client) associate() {
	c.Node.Send(phy.Frame{Kind: phy.KindAssocReq, Src: c.ID, Dst: c.apID,
		Bytes: 60, Meta: AssocMeta{SSID: c.Cfg.SSID}})
}

func (c *Client) observe() assign.Observation {
	to := c.eng.Now()
	from := to - DefaultAirtimeWindow
	if from < 0 {
		from = 0
	}
	return radio.Observe(c.Airtime, c.Sensor.CurrentMap(), from, to, -1)
}

// openOutage starts an outage episode (idempotent while one is open).
func (c *Client) openOutage(cause string) {
	if c.outOpen {
		return
	}
	c.outOpen = true
	c.outStart = c.eng.Now()
	c.outCause = cause
	c.outPath = nil
	c.Disconnects++
}

// closeOutage completes the open episode: service has resumed.
func (c *Client) closeOutage() {
	if !c.outOpen {
		return
	}
	c.outOpen = false
	c.episodeGen++
	start := float64(c.outStart) / float64(time.Millisecond)
	end := float64(c.eng.Now()) / float64(time.Millisecond)
	rec := trace.OutageRecord{
		Event:   "outage",
		Node:    c.ID,
		Cause:   c.outCause,
		StartMs: start,
		EndMs:   end,
		DurMs:   end - start,
		Path:    strings.Join(c.outPath, ">"),
	}
	c.Outages = append(c.Outages, rec)
	if c.OnOutage != nil {
		c.OnOutage(rec)
	}
}

func (c *Client) receive(f phy.Frame, _ *mac.Transmission) {
	switch f.Kind {
	case phy.KindBeacon:
		m, ok := f.Meta.(BeaconMeta)
		if !ok || m.SSID != c.Cfg.SSID {
			return
		}
		if c.onBackup {
			// A beacon while disconnected only means the network has
			// actually moved to the channel we are chirping on; the
			// advertised operating channel must match.
			if m.Channel != c.Node.Channel() {
				return
			}
			c.onBackup = false
			c.stopChirping()
			c.Reconnections++
		}
		c.lastBeacon = c.eng.Now()
		c.backup = m.Backup
		c.apChannel = m.Channel
		if !c.associated {
			c.associate()
		}
		c.closeOutage()
	case phy.KindAssocResp:
		if m, ok := f.Meta.(AssocMeta); ok && m.SSID == c.Cfg.SSID {
			c.associated = true
			c.lastBeacon = c.eng.Now()
		}
	case phy.KindSwitch:
		m, ok := f.Meta.(SwitchMeta)
		if !ok || m.SSID != c.Cfg.SSID {
			return
		}
		// Follow the network to its new channel (both the normal
		// switch path and the post-disconnection reassignment path) —
		// unless this client's own sensor says the target is occupied
		// by an incumbent it can hear but the AP cannot; then stay on
		// (or return to) the backup channel and keep chirping so the
		// AP learns our map (Section 4.1, footnote 1).
		if c.Sensor.MicActiveOn(m.Target) || !c.Sensor.CurrentMap().ChannelFree(m.Target) {
			if !c.onBackup {
				c.backup = m.Backup
				c.goToBackup("switch-blocked")
			}
			return
		}
		wasBackup := c.onBackup
		c.onBackup = false
		c.stopChirping()
		c.Node.ClearQueue() // drop frames composed for the old channel
		c.Node.Retune(m.Target)
		c.apChannel = m.Target
		c.backup = m.Backup
		c.lastBeacon = c.eng.Now()
		if wasBackup {
			c.Reconnections++
		}
		c.closeOutage()
	case phy.KindChirp:
		// The AP chirps while camped on a rendezvous channel. Hearing our
		// own AP here means it is listening right now: answer immediately
		// instead of waiting out a backed-off chirp interval, so the
		// exchange completes inside the AP's bounded collection window.
		m, ok := f.Meta.(chirp.Meta)
		if !ok || m.SSID != c.Cfg.SSID || m.Node != c.apID || !c.onBackup {
			return
		}
		if c.chirper != nil && c.chirper.Running() {
			c.chirper.Poke()
		}
	}
}

// controlTick periodically reports the client's observation to the AP.
func (c *Client) controlTick() {
	if !c.running {
		return
	}
	defer c.eng.After(DefaultControlPeriod, c.controlTick)
	if !c.associated || c.onBackup {
		return
	}
	c.Node.Send(phy.Frame{Kind: phy.KindControl, Src: c.ID, Dst: c.apID,
		Bytes: 120, Meta: ControlMeta{Obs: c.observe()}})
}

// beaconWatchTick detects disconnection: no beacon (or switch) heard
// for DefaultBeaconTimeout means the AP has moved (e.g. it sensed a mic
// we cannot hear, or we missed the switch announcement) or died. The
// client reverts to the disconnection protocol: go to the backup
// channel and chirp.
func (c *Client) beaconWatchTick() {
	if !c.running {
		return
	}
	defer c.eng.After(DefaultBeaconTimeout/2, c.beaconWatchTick)
	if !c.associated || c.onBackup {
		return
	}
	if c.eng.Now()-c.lastBeacon > DefaultBeaconTimeout {
		c.goToBackup("beacon-timeout")
	}
}

func (c *Client) watchMics() {
	for _, mic := range c.Sensor.Mics {
		mic := mic
		prev := mic.OnChange
		mic.OnChange = func(active bool) {
			if prev != nil {
				prev(active)
			}
			c.micChanged(mic.Channel, active)
		}
	}
}

func (c *Client) micChanged(u spectrum.UHF, active bool) {
	if !c.running || !active {
		return
	}
	if c.onBackup {
		// A mic landing on the very channel we are chirping on: no AP
		// will ever rendezvous here. Rotate immediately instead of
		// chirping under an incumbent until the dwell timer notices.
		if c.Node.Channel().Contains(u) {
			c.rotateBackup()
		}
		return
	}
	if c.Node.Channel().Contains(u) {
		// Incumbent on the operating channel: vacate at once. No
		// farewell frame is permitted — that is the whole point of the
		// chirping protocol.
		c.goToBackup("mic")
	}
}

// goToBackup moves to the (possibly secondary) backup channel and chirps
// until the AP shows up and reassigns the network.
func (c *Client) goToBackup(cause string) {
	c.openOutage(cause)
	target := c.backup
	m := c.Sensor.CurrentMap()
	if target == (spectrum.Channel{}) || !m.ChannelFree(target) {
		// The backup channel itself is occupied by an incumbent:
		// choose an arbitrary free channel as a secondary backup; the
		// AP's periodic all-channel scan will find us (Section 4.3).
		if alt, ok := chirp.ChooseBackup(m, c.apChannel, c.rng); ok {
			target = alt
		} else {
			return // nowhere to go; the beacon watch keeps retrying
		}
	}
	c.moveChirpTo(target)
	if c.chirper != nil {
		// A chirper may already be running (mic hit on the rendezvous
		// channel); fold its count before replacing it. Its events are
		// left untouched — stopping it here would alter the pinned
		// event sequences.
		c.chirpsSent += c.chirper.Sent
	}
	c.chirper = chirp.NewChirper(c.eng, c.Node, c.Cfg.SSID, c.ssidCode, func() spectrum.Map {
		return c.Sensor.CurrentMap()
	})
	c.chirper.EnableBackoff(chirpBackoffAfter, chirpBackoffCap, chirpJitterFrac, c.rng)
	c.chirper.SetSteady(target == c.backup)
	c.chirper.Start()
}

// moveChirpTo retunes the disconnected client to a rendezvous channel,
// records it on the outage path, and (re)arms the rotation dwell timer.
func (c *Client) moveChirpTo(target spectrum.Channel) {
	c.RendezvousAttempts++
	c.Node.ClearQueue()
	c.Node.Retune(target)
	c.onBackup = true
	c.outPath = append(c.outPath, target.String())
	c.armRotateDwell(target)
}

// armRotateDwell schedules the next rendezvous re-evaluation for a
// client camped on target. The episode generation guards against timers
// surviving into a later disconnection episode.
func (c *Client) armRotateDwell(target spectrum.Channel) {
	gen := c.episodeGen
	c.eng.After(rotateDwell, func() {
		if c.running && c.onBackup && c.episodeGen == gen && c.Node.Channel() == target {
			c.rotateBackup()
		}
	})
}

// rotateBackup re-evaluates the rendezvous channel after a full dwell
// of unanswered chirping. On the advertised backup channel — which the
// AP checks every DefaultBackupScanPeriod, making it the best bet while
// free — the client camps: it stays put at the steady chirp cadence and
// only re-checks that the channel is still incumbent-free. Anywhere
// else (the advertised backup was mic-hit, or this is already a
// speculative channel) the search escalates: return to the advertised
// backup if it has come free again, otherwise hop to a seeded random
// free channel, which the AP's full scan sweeps every
// DefaultFullScanPeriod. Chirp backoff resets on each hop: a fresh
// channel deserves fast initial chirps.
func (c *Client) rotateBackup() {
	if !c.running || !c.onBackup {
		return
	}
	m := c.Sensor.CurrentMap()
	cur := c.Node.Channel()
	if cur == c.backup && m.ChannelFree(cur) {
		c.armRotateDwell(cur)
		return
	}
	var target spectrum.Channel
	if c.backup != (spectrum.Channel{}) && c.backup != cur && m.ChannelFree(c.backup) {
		target = c.backup
	} else {
		var candidates []spectrum.Channel
		for _, ch := range spectrum.ChannelsOfWidth(spectrum.W5) {
			if ch != cur && m.ChannelFree(ch) {
				candidates = append(candidates, ch)
			}
		}
		if len(candidates) == 0 {
			return // fully blocked spectrum; stay and keep chirping
		}
		target = candidates[c.rng.Intn(len(candidates))]
	}
	c.moveChirpTo(target)
	if c.chirper != nil {
		c.chirper.ResetBackoff()
		c.chirper.SetSteady(target == c.backup)
	}
}

// stopChirping retires the active chirper, folding its sent count into
// the client's cumulative total before dropping it.
func (c *Client) stopChirping() {
	if c.chirper != nil {
		c.chirper.Stop()
		c.chirpsSent += c.chirper.Sent
		c.chirper = nil
	}
}

// ChirpsSent returns the total number of chirps this client has sent
// across all disconnection episodes, including the one in progress.
func (c *Client) ChirpsSent() int {
	n := c.chirpsSent
	if c.chirper != nil {
		n += c.chirper.Sent
	}
	return n
}
