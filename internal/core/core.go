package core

import (
	"math/rand"
	"sort"
	"time"

	"whitefi/internal/assign"
	"whitefi/internal/chirp"
	"whitefi/internal/discovery"
	"whitefi/internal/mac"
	"whitefi/internal/phy"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// Protocol timing. DefaultProbePeriod is Config.ProbePeriod's default;
// the others are fixed.
const (
	DefaultBeaconInterval   = radio.BeaconInterval    // AP beacon period
	DefaultControlPeriod    = 1 * time.Second         // client observation reports
	DefaultProbePeriod      = 5 * time.Second         // AP voluntary re-evaluation
	DefaultAirtimeWindow    = 500 * time.Millisecond  // lookback for airtime measurement
	DefaultBackupScanPeriod = 3 * time.Second         // AP secondary-radio chirp scan
	DefaultFullScanPeriod   = 10 * time.Second        // AP all-channel scan for lost nodes
	DefaultChirpCollect     = 500 * time.Millisecond  // Tc: chirp collection before reassign
	DefaultBeaconTimeout    = 1200 * time.Millisecond // client disconnect detection
)

// Config parameterises a WhiteFi network. Zero fields select defaults.
type Config struct {
	SSID        string
	ProbePeriod time.Duration // AP voluntary re-evaluation
	Hysteresis  float64
	// Shedding enables per-flow longest-queue-drop admission at the
	// AP's egress queue (mac.Node.SetShedding) instead of the default
	// indiscriminate tail drop — the graceful-degradation half of the
	// overload fault model.
	Shedding bool
	// IDBase offsets every node id the network allocates (AP = IDBase+1,
	// clients from IDBase+100), so several networks can share one medium
	// without colliding — the sharded storm scenario places its tiles'
	// networks on a single Air in the serial reference layout. Zero (the
	// default) keeps the legacy ids.
	IDBase int
	// Rand, when non-nil, supplies a per-entity random stream for each
	// node id the network allocates, installed at construction — before
	// the AP's very first backup draw and the nodes' first backoff draw.
	// A post-construction AP.SetRand cannot retroactively cover those,
	// so shard-invariant scenarios (which need every draw to come from a
	// stream keyed by entity, not by engine) must pass the hook here,
	// typically func(id int) *rand.Rand { return eng.RandFor(id) }.
	// Nil keeps the legacy engine-shared stream.
	Rand func(id int) *rand.Rand
}

func (c *Config) fill() {
	if c.SSID == "" {
		c.SSID = "whitefi"
	}
	if c.ProbePeriod <= 0 {
		c.ProbePeriod = DefaultProbePeriod
	}
}

// BeaconMeta is the payload of WhiteFi beacons.
type BeaconMeta struct {
	SSID    string
	Channel spectrum.Channel
	Backup  spectrum.Channel
}

// SwitchMeta announces a channel switch to all clients of an SSID.
type SwitchMeta struct {
	SSID   string
	Target spectrum.Channel
	Backup spectrum.Channel
}

// ControlMeta is a client's periodic observation report.
type ControlMeta struct {
	Obs assign.Observation
}

// AssocMeta is carried by association requests/responses.
type AssocMeta struct {
	SSID string
}

// SwitchReason distinguishes why the network changed channels.
type SwitchReason int

// Switch reasons.
const (
	SwitchInitial SwitchReason = iota
	SwitchVoluntary
	SwitchIncumbent
	SwitchRevert
	SwitchRestart
)

// String names the switch reason for traces and logs.
func (r SwitchReason) String() string {
	switch r {
	case SwitchInitial:
		return "initial"
	case SwitchVoluntary:
		return "voluntary"
	case SwitchIncumbent:
		return "incumbent"
	case SwitchRevert:
		return "revert"
	case SwitchRestart:
		return "restart"
	}
	return "unknown"
}

// SwitchEvent records one channel change for tracing.
type SwitchEvent struct {
	At     time.Duration
	From   spectrum.Channel
	To     spectrum.Channel
	Reason SwitchReason
	Metric float64
}

type clientState struct {
	id       int
	obs      assign.Observation
	hasObs   bool
	lastSeen time.Duration
}

// AP is a WhiteFi access point.
type AP struct {
	ID  int
	Cfg Config

	eng     *sim.Engine
	air     *mac.Air
	Node    *mac.Node
	Scanner *radio.Scanner
	Sensor  *radio.IncumbentSensor
	// Airtime is the airtime source used for MCham observations. The
	// constructor installs ground-truth accounting excluding the
	// network's own nodes; tests may replace it with a SIFT source.
	Airtime radio.AirtimeSource

	selector assign.Selector
	clients  map[int]*clientState
	backup   spectrum.Channel
	ssidCode int
	rng      *rand.Rand // non-nil overrides the engine RNG for backup draws (see SetRand)

	// Own-network node ids excluded from airtime measurement.
	own map[int]bool

	// Disconnection state.
	onBackup          bool
	collecting        bool
	collectRetries    int
	apSensedIncumbent bool
	chirpMaps         []spectrum.Map
	chirpSeen         map[int]bool // nodes whose chirp body this collection already holds
	chirper           *chirp.Chirper
	switchGen         int  // invalidates stale switch announcements
	switchPending     bool // a switch is announced but not yet executed
	lastSwitchDone    time.Duration

	// Fault state (see Crash, Restart, StallScanner).
	incarnation  int // invalidates events scheduled before a crash
	crashed      bool
	stalledUntil time.Duration

	// Voluntary-switch revert bookkeeping.
	lastGoodput   float64
	prevChannel   spectrum.Channel
	pendingRevert bool
	goodputBase   int64
	goodputBaseAt time.Duration

	// Switches records every channel change.
	Switches []SwitchEvent
	// Reconnections counts completed disconnection recoveries.
	Reconnections int
	// Crashes counts injected crashes (see Crash).
	Crashes int
	// Stalls counts injected scanner stalls (see StallScanner).
	Stalls int

	running bool
}

// NewAP creates an access point with the given static incumbent map and
// audible microphones, performs the initial channel selection from its
// own observations, and starts beaconing.
func NewAP(eng *sim.Engine, air *mac.Air, id int, cfg Config, sensor *radio.IncumbentSensor) *AP {
	cfg.fill()
	ap := &AP{
		ID:      id,
		Cfg:     cfg,
		eng:     eng,
		air:     air,
		Scanner: radio.NewScanner(air, id, rand.New(rand.NewSource(int64(id)*7919+1))),
		Sensor:  sensor,
		clients: map[int]*clientState{},
		own:     map[int]bool{id: true},
	}
	ap.ssidCode = discovery.ChirpValue(cfg.SSID)
	ap.selector.Hysteresis = cfg.Hysteresis
	// The AP's location is its sensor's; airtime accounting is what the
	// AP itself can hear from there (identical to the ideal accounting
	// on a flat medium).
	if sensor != nil {
		air.SetPosition(id, sensor.Pos)
	}
	ap.Airtime = &radio.TrueAirtime{Air: air, Exclude: ap.own, Observer: id}

	// Initial channel selection: AP-only observation (bootstrapping).
	obs := ap.observe()
	sel, _ := ap.selector.Evaluate(obs, nil)
	ch := sel.Channel
	if !sel.OK {
		// Fully blocked spectrum: park on channel 0 silently; the
		// probe loop keeps looking.
		ch = spectrum.Chan(0, spectrum.W5)
	}
	ap.Node = mac.NewNode(eng, air, id, ch, true)
	ap.Node.OnReceive = ap.receive
	ap.Node.OnSent = ap.sent
	if cfg.Rand != nil {
		ap.SetRand(cfg.Rand(id))
	}
	ap.pickBackup()
	ap.Switches = append(ap.Switches, SwitchEvent{At: eng.Now(), To: ch, Reason: SwitchInitial, Metric: sel.Metric})

	if cfg.Shedding {
		ap.Node.SetShedding(true)
	}
	ap.running = true
	ap.WatchMics()
	ap.startTicks()
	return ap
}

// startTicks seeds the protocol's periodic chains for the current
// incarnation.
func (a *AP) startTicks() {
	a.beaconTick()
	a.afterInc(a.Cfg.ProbePeriod, a.probeTick)
	a.afterInc(DefaultBackupScanPeriod, a.backupScanTick)
	a.afterInc(DefaultFullScanPeriod, a.fullScanTick)
}

// afterInc schedules fn gated on the AP's current incarnation: events
// scheduled before a crash must not fire into the state of a restarted
// AP (stale Tc collection windows, orphaned tick chains).
func (a *AP) afterInc(d time.Duration, fn func()) {
	inc := a.incarnation
	a.eng.After(d, func() {
		if a.incarnation == inc {
			fn()
		}
	})
}

// scheduleCollect arms the Tc chirp-collection window for the current
// incarnation.
func (a *AP) scheduleCollect() {
	a.afterInc(DefaultChirpCollect, a.finishCollect)
}

// Stop halts all AP activity.
func (a *AP) Stop() { a.running = false }

// Crash simulates a sudden AP failure: the radio goes dark (the egress
// queue is dropped, in-flight frames are disowned, receptions —
// including client data awaiting ACKs — are ignored), beacons stop, and
// all volatile protocol state is lost: associations, client
// observations, any chirp-collection in progress, pending switch
// announcements. Events scheduled before the crash are invalidated by
// an incarnation bump so a later Restart cannot inherit them. Crashing
// a stopped or already-crashed AP is a no-op.
func (a *AP) Crash() {
	if !a.running || a.crashed {
		return
	}
	a.running = false
	a.crashed = true
	a.incarnation++
	a.switchGen++
	a.switchPending = false
	a.onBackup = false
	a.collecting = false
	a.collectRetries = 0
	a.apSensedIncumbent = false
	a.chirpMaps = nil
	a.chirpSeen = nil
	a.pendingRevert = false
	if a.chirper != nil {
		a.chirper.Stop()
		a.chirper = nil
	}
	a.clients = map[int]*clientState{}
	a.Crashes++
	a.Node.SetDown(true)
}

// Restart reboots a crashed AP: power the radio back on, rerun the
// initial spectrum assignment from the AP's own observation (all
// association and observation state died with the crash), and restart
// the protocol tick chains. The advertised backup channel is retained
// when still usable — it is the rendezvous point surviving clients
// remember — so chirping clients are re-adopted through the ordinary
// scan -> collect -> reassign path, each counted exactly once (the
// collection window dedups chirp bodies by node). Mic subscriptions
// installed at construction stay in place; they are not re-wrapped.
// Restarting a running (or merely Stopped) AP is a no-op.
func (a *AP) Restart() {
	if a.running || !a.crashed {
		return
	}
	a.crashed = false
	a.incarnation++
	a.running = true
	a.selector = assign.Selector{Hysteresis: a.Cfg.Hysteresis}
	a.Node.SetDown(false)
	a.Node.SetHoldData(false)
	obs := a.observe()
	sel, _ := a.selector.Evaluate(obs, nil)
	ch := sel.Channel
	if !sel.OK {
		ch = spectrum.Chan(0, spectrum.W5)
	}
	a.Node.Retune(ch)
	a.lastSwitchDone = a.eng.Now() // chirps from before the reboot are stale
	a.pickBackup()
	a.Switches = append(a.Switches, SwitchEvent{At: a.eng.Now(), To: ch, Reason: SwitchRestart, Metric: sel.Metric})
	a.startTicks()
}

// StallScanner silently disables the secondary-radio chirp scanner
// until d from now: scans report nothing while stalled and, once
// recovered, cannot retroactively decode chirps sent during the stall —
// clients chirp into the void, the livelock the chirp backoff breaks.
// Overlapping stalls extend to the furthest deadline.
func (a *AP) StallScanner(d time.Duration) {
	if until := a.eng.Now() + d; until > a.stalledUntil {
		a.stalledUntil = until
		a.Stalls++
	}
}

// InjectLoad enqueues n data frames of the given payload size on the
// AP's egress queue, round-robin over the associated clients in id
// order — the overload-pressure fault: a burst of offered load arriving
// faster than the medium drains it. The queue's overflow policy (tail
// drop, or per-flow shedding when Config.Shedding is set) decides who
// pays. Returns how many frames the queue accepted.
func (a *AP) InjectLoad(n, bytes int) int {
	if !a.running || a.onBackup {
		return 0
	}
	ids := a.Clients()
	if len(ids) == 0 {
		return 0
	}
	accepted := 0
	for i := 0; i < n; i++ {
		if a.Node.Send(phy.DataFrame(a.ID, ids[i%len(ids)], bytes)) {
			accepted++
		}
	}
	return accepted
}

// Channel returns the AP's current operating channel.
func (a *AP) Channel() spectrum.Channel { return a.Node.Channel() }

// Backup returns the currently advertised backup channel.
func (a *AP) Backup() spectrum.Channel { return a.backup }

// OnBackup reports whether the AP's main radio currently sits on the
// backup channel collecting chirps (the disconnected state). The
// dynamics scenarios integrate it over time to measure time-on-backup.
func (a *AP) OnBackup() bool { return a.onBackup }

// Clients returns the ids of currently associated clients.
func (a *AP) Clients() []int {
	out := make([]int, 0, len(a.clients))
	for id := range a.clients {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// RegisterOwn marks extra node ids as part of this network so their
// traffic is excluded from airtime measurement (used when attaching
// traffic generators with their own node ids).
func (a *AP) RegisterOwn(id int) { a.own[id] = true }

// observe builds the AP's current spectrum observation.
func (a *AP) observe() assign.Observation {
	to := a.eng.Now()
	from := to - DefaultAirtimeWindow
	if from < 0 {
		from = 0
	}
	return radio.Observe(a.Airtime, a.Sensor.CurrentMap(), from, to, -1)
}

func (a *AP) clientObs() []assign.Observation {
	// Iterate in id order: observation aggregation must not depend on
	// map iteration order, or per-seed runs stop being byte-identical.
	var out []assign.Observation
	for _, id := range a.Clients() {
		c := a.clients[id]
		if c.hasObs {
			out = append(out, c.obs)
		} else {
			out = append(out, assign.Observation{Map: a.Sensor.Base})
		}
	}
	return out
}

// pickBackup chooses and stores a backup channel given current maps.
// An already-advertised backup is kept as long as it remains usable:
// the backup channel is the rendezvous point for disconnected clients,
// and clients that missed recent beacons only know the old one.
func (a *AP) pickBackup() {
	m := assign.CombinedMap(a.observe(), a.clientObs())
	if a.backup != (spectrum.Channel{}) && m.ChannelFree(a.backup) &&
		!a.backup.Overlaps(a.Node.Channel()) {
		return
	}
	r := a.eng.Rand()
	if a.rng != nil {
		r = a.rng
	}
	if b, ok := chirp.ChooseBackup(m, a.Node.Channel(), r); ok {
		a.backup = b
	}
}

// SetRand makes the AP draw its backup-channel choices from r instead
// of the engine's shared random source, and hands the same stream to
// its MAC node's backoff. The shared source couples entities through
// global event order; sharded scenarios give each AP a per-entity
// stream (typically eng.RandFor(id)) so the realisation is invariant
// to how the world is partitioned. Nil keeps the legacy behavior.
func (a *AP) SetRand(r *rand.Rand) {
	a.rng = r
	a.Node.SetRand(r)
}

// beaconTick sends the periodic beacon.
func (a *AP) beaconTick() {
	if !a.running {
		return
	}
	if !a.onBackup {
		a.Node.Send(phy.BeaconFrame(a.ID, BeaconMeta{
			SSID:    a.Cfg.SSID,
			Channel: a.Node.Channel(),
			Backup:  a.backup,
		}))
	}
	a.afterInc(DefaultBeaconInterval, a.beaconTick)
}

// sent chains the CTS-to-self one SIFS after each beacon (the SIFT
// beacon fingerprint).
func (a *AP) sent(f phy.Frame) {
	if f.Kind != phy.KindBeacon {
		return
	}
	w := a.Node.Channel().Width
	a.eng.After(phy.SIFS(w), func() {
		if a.running {
			a.Node.SendImmediate(phy.CTSFrame(a.ID))
		}
	})
}

// receive handles client frames.
func (a *AP) receive(f phy.Frame, _ *mac.Transmission) {
	switch f.Kind {
	case phy.KindAssocReq:
		if m, ok := f.Meta.(AssocMeta); !ok || m.SSID != a.Cfg.SSID {
			return
		}
		a.clients[f.Src] = &clientState{id: f.Src, lastSeen: a.eng.Now()}
		a.Node.Send(phy.Frame{Kind: phy.KindAssocResp, Src: a.ID, Dst: f.Src,
			Bytes: 60, Meta: AssocMeta{SSID: a.Cfg.SSID}})
	case phy.KindControl:
		if c, ok := a.clients[f.Src]; ok {
			if m, ok := f.Meta.(ControlMeta); ok {
				c.obs = m.Obs
				c.hasObs = true
				c.lastSeen = a.eng.Now()
			}
		}
	case phy.KindChirp:
		// Chirp bodies only matter while the main radio sits on the
		// backup channel collecting lost nodes — and not once a
		// reassignment is already announced.
		if !a.onBackup || a.switchPending {
			return
		}
		if m, ok := f.Meta.(chirp.Meta); ok && m.SSID == a.Cfg.SSID {
			// One chirp body per node per collection: a node re-chirping
			// inside the window (or re-adopted after an AP reboot) must
			// not cast a double vote in the reassignment.
			if a.chirpSeen[m.Node] {
				return
			}
			if a.chirpSeen == nil {
				a.chirpSeen = map[int]bool{}
			}
			a.chirpSeen[m.Node] = true
			a.chirpMaps = append(a.chirpMaps, m.Map)
			if !a.collecting {
				a.collecting = true
				a.scheduleCollect()
			}
		}
	}
}

// goodput returns cumulative acknowledged downlink payload bytes.
func (a *AP) goodput() int64 { return a.Node.Stats.PayloadRxOK }

// probeTick is the periodic voluntary channel re-evaluation.
func (a *AP) probeTick() {
	if !a.running {
		return
	}
	defer a.afterInc(a.Cfg.ProbePeriod, a.probeTick)
	if a.onBackup {
		return
	}

	// Measure goodput over the elapsed probe period for revert checks.
	now := a.eng.Now()
	var rate float64
	if now > a.goodputBaseAt {
		rate = float64(a.goodput()-a.goodputBase) / float64(now-a.goodputBaseAt)
	}
	a.goodputBase = a.goodput()
	a.goodputBaseAt = now

	// Revert check: a voluntary switch that reduced goodput is undone
	// (Section 4.1) — but only when the metric still considers the old
	// channel competitive. Network-wide load changes legitimately
	// reduce goodput after a correct switch; reverting then would chase
	// a throughput level that no channel can deliver anymore.
	if a.pendingRevert {
		a.pendingRevert = false
		if rate < a.lastGoodput*0.9 && a.prevChannel.Valid() {
			obs := a.observe()
			clients := a.clientObs()
			combined := assign.CombinedMap(obs, clients)
			prevMetric := assign.Aggregate(obs, clients, a.prevChannel)
			curMetric := assign.Aggregate(obs, clients, a.Node.Channel())
			if combined.ChannelFree(a.prevChannel) && prevMetric >= 0.5*curMetric {
				a.selector.ForceChannel(a.prevChannel)
				a.switchTo(a.prevChannel, SwitchRevert, prevMetric)
				return
			}
		}
	}

	obs := a.observe()
	sel, doSwitch := a.selector.Evaluate(obs, a.clientObs())
	if !sel.OK || !doSwitch {
		a.lastGoodput = rate
		return
	}
	a.prevChannel = a.Node.Channel()
	a.lastGoodput = rate
	a.pendingRevert = true
	a.switchTo(sel.Channel, SwitchVoluntary, sel.Metric)
}

// switchTo announces and performs a channel switch. Announcements are
// spread out in time so that a client busy transmitting (half duplex —
// e.g. mid-chirp) still hears at least one of them.
func (a *AP) switchTo(target spectrum.Channel, reason SwitchReason, metric float64) {
	from := a.Node.Channel()
	meta := SwitchMeta{SSID: a.Cfg.SSID, Target: target, Backup: a.backup}
	a.switchGen++
	gen := a.switchGen
	a.switchPending = true
	announce := func() {
		if a.running && a.switchGen == gen {
			a.Node.Send(phy.Frame{Kind: phy.KindSwitch, Src: a.ID, Dst: phy.Broadcast, Bytes: 60, Meta: meta})
		}
	}
	announce()
	a.eng.After(30*time.Millisecond, announce)
	a.eng.After(60*time.Millisecond, announce)
	a.eng.After(90*time.Millisecond, announce)
	a.eng.After(120*time.Millisecond, func() {
		if !a.running || a.switchGen != gen {
			return
		}
		a.Node.ClearQueue()
		a.Node.SetHoldData(false)
		a.Node.Retune(target)
		a.onBackup = false
		a.switchPending = false
		a.lastSwitchDone = a.eng.Now()
		a.pickBackup()
		a.Switches = append(a.Switches, SwitchEvent{
			At: a.eng.Now(), From: from, To: target, Reason: reason, Metric: metric,
		})
	})
}

// WatchMics subscribes the AP to the mic set of its sensor: an incumbent
// appearing on the operating channel forces an immediate involuntary
// switch. NewAP calls it automatically.
func (a *AP) WatchMics() {
	for _, mic := range a.Sensor.Mics {
		mic := mic
		prev := mic.OnChange
		mic.OnChange = func(active bool) {
			if prev != nil {
				prev(active)
			}
			a.micChanged(mic.Channel, active)
		}
	}
}

func (a *AP) micChanged(u spectrum.UHF, active bool) {
	if !a.running || !active {
		return
	}
	if a.Node.Channel().Contains(u) {
		a.vacateToBackup()
	} else if a.backup.Contains(u) {
		// Incumbent on the backup channel: pick a new one; it will be
		// advertised in subsequent beacons.
		a.pickBackup()
	}
}

// vacateToBackup is the AP side of an involuntary disconnection: move
// the main radio to the backup channel at once (no transmission on the
// mic's channel is permissible, not even an announcement) and wait for
// clients' chirps there.
func (a *AP) vacateToBackup() {
	if a.backup == (spectrum.Channel{}) {
		a.pickBackup()
	}
	a.Node.ClearQueue()
	a.Node.SetHoldData(true)
	a.Node.Retune(a.backup)
	a.onBackup = true
	a.apSensedIncumbent = true
	a.selector.Invalidate()
	// The AP chirps too: clients that detected the mic independently
	// are listening on the backup channel for their network.
	if a.chirper == nil || !a.chirper.Running() {
		a.chirper = chirp.NewChirper(a.eng, a.Node, a.Cfg.SSID, a.ssidCode, func() spectrum.Map {
			return a.Sensor.CurrentMap()
		})
		a.chirper.Period = 150 * time.Millisecond
		a.chirper.Start()
	}
	if !a.collecting {
		a.collecting = true
		a.scheduleCollect()
	}
}

// finishCollect ends the Tc chirp-collection window: reassign spectrum
// using the chirped maps plus everything already known, announce on the
// backup channel, and move.
func (a *AP) finishCollect() {
	a.collecting = false
	if !a.running {
		return
	}
	// If the AP joined the backup channel because a *client* sensed an
	// incumbent, the AP's own map does not show it; reassigning before
	// any chirp body is decoded could land right back on the mic. Wait
	// another window (bounded). When the AP sensed the incumbent
	// itself its own map already excludes the channel, so no wait is
	// needed.
	if !a.apSensedIncumbent && len(a.chirpMaps) == 0 && a.collectRetries < 4 {
		a.collectRetries++
		a.collecting = true
		a.scheduleCollect()
		return
	}
	a.collectRetries = 0
	a.apSensedIncumbent = false
	if a.chirper != nil {
		a.chirper.Stop()
	}
	obs := a.observe()
	clientObs := a.clientObs()
	for _, m := range a.chirpMaps {
		// A chirp carries only the lost node's spectrum map; the node
		// could not measure airtime while disconnected. Pair the map
		// with the AP's airtime view so the chirped observation
		// constrains which channels are usable without casting a
		// zero-airtime vote that would skew the metric toward the
		// widest channel.
		clientObs = append(clientObs, assign.Observation{
			Map: m, Airtime: obs.Airtime, APs: obs.APs,
		})
	}
	a.chirpMaps = nil
	a.chirpSeen = nil
	a.selector.Invalidate()
	sel, _ := a.selector.Evaluate(obs, clientObs)
	if !sel.OK {
		// Nothing usable; retry after another collection window.
		a.collecting = true
		a.scheduleCollect()
		return
	}
	a.Reconnections++
	a.switchTo(sel.Channel, SwitchIncumbent, sel.Metric)
}

// backupScanTick scans the backup channel for chirps with the secondary
// radio while the main radio keeps serving connected clients.
func (a *AP) backupScanTick() {
	if !a.running {
		return
	}
	defer a.afterInc(DefaultBackupScanPeriod, a.backupScanTick)
	if a.onBackup || a.backup == (spectrum.Channel{}) {
		return
	}
	if a.scanForChirps(a.backup.Center) {
		// A lost node of our network is chirping: join it on the
		// backup channel and collect its information with the main
		// radio. Drop queued frames — they were composed for the old
		// channel and must not leak onto the backup channel.
		a.joinBackup(a.backup)
	}
}

// joinBackup moves the main radio to a backup channel to collect chirps.
func (a *AP) joinBackup(b spectrum.Channel) {
	a.Node.ClearQueue()
	a.Node.SetHoldData(true)
	a.Node.Retune(b)
	a.backup = b
	a.onBackup = true
	a.selector.Invalidate()
	// Chirp here too: a lost client whose chirp cadence has backed off
	// to multi-second intervals answers the AP's chirp immediately, so
	// the rendezvous fits inside the Tc window instead of racing a
	// backed-off timer against the AP's bounded stay.
	if a.chirper == nil || !a.chirper.Running() {
		a.chirper = chirp.NewChirper(a.eng, a.Node, a.Cfg.SSID, a.ssidCode, func() spectrum.Map {
			return a.Sensor.CurrentMap()
		})
		a.chirper.Period = 150 * time.Millisecond
		a.chirper.Start()
	}
	if !a.collecting {
		a.collecting = true
		a.scheduleCollect()
	}
}

// fullScanTick periodically sweeps every free channel for chirps from
// nodes whose backup channel was itself blocked by an incumbent.
func (a *AP) fullScanTick() {
	if !a.running {
		return
	}
	defer a.afterInc(DefaultFullScanPeriod, a.fullScanTick)
	if a.onBackup {
		return
	}
	m := a.Sensor.CurrentMap()
	for u := spectrum.UHF(0); u < spectrum.NumUHF; u++ {
		if m.Occupied(u) || a.backup.Contains(u) {
			continue
		}
		if a.scanForChirps(u) {
			a.joinBackup(spectrum.Chan(u, spectrum.W5))
			return
		}
	}
}

// chirpErosionSteps tolerates the 5 MHz leading-ramp erosion (the
// Figure 5 hardware quirk): at sub-saturation SNR — a chirper near the
// edge of scanner range — the low-amplitude leading portion of a chirp
// frame renders below the calibrated SIFT threshold, shortening the
// detected pulse by up to ~10% of its airtime, i.e. a few length-code
// steps. Values that many steps *below* the SSID code still count as
// ours. At full SNR (the flat single-cell setups) chirps decode exactly,
// so the tolerance changes nothing there; the cost is slightly weaker
// SSID discrimination against networks with adjacent codes.
const chirpErosionSteps = 4

// chirpMatches reports whether a decoded chirp value plausibly encodes
// the given SSID code, allowing for leading-ramp erosion.
func chirpMatches(v, code int) bool {
	return v <= code && v >= code-chirpErosionSteps
}

// scanForChirps checks the recent window on UHF channel u for chirps
// length-coded with this network's SSID. Chirps older than the last
// completed reassignment are stale — they belong to a disconnection
// that has already been resolved — and are excluded from the window.
func (a *AP) scanForChirps(u spectrum.UHF) bool {
	to := a.eng.Now()
	if to < a.stalledUntil {
		return false // secondary radio stalled (see StallScanner)
	}
	from := to - DefaultBackupScanPeriod
	if from < a.lastSwitchDone {
		from = a.lastSwitchDone
	}
	// A recovered radio cannot retroactively see chirps sent while it
	// was stalled.
	if from < a.stalledUntil {
		from = a.stalledUntil
	}
	if from < 0 {
		from = 0
	}
	if to <= from {
		return false
	}
	for _, v := range a.Scanner.Chirps(u, from, to) {
		if chirpMatches(v, a.ssidCode) {
			return true
		}
	}
	return false
}
