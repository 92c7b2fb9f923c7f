package exp

import (
	"fmt"
	"time"

	"whitefi/internal/core"
	"whitefi/internal/dynamics"
	"whitefi/internal/incumbent"
	"whitefi/internal/mac"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
	"whitefi/internal/trace"
)

// The dynamics scenarios run the stack in a world that changes under it:
// nodes move along trajectories applied every mobility epoch, and
// wireless microphones key up on their own Markov schedules. These are
// the scenario families that exercise WhiteFi's adaptation machinery
// organically — disconnection detection, chirp rendezvous,
// re-association, and incumbent-forced switching — instead of through
// scripted toggles. All of them run on the parallel harness and are
// deterministic per seed at any worker count.

// driveByBinM is the distance-bin width of the DriveBy curve, in meters.
const driveByBinM = 100

// driveByBins spans 0..900 m of AP-client distance.
const driveByBins = 9

// DriveByPoint is one distance bin of the drive-by curve: the mean
// downlink goodput while the client was that far from the AP.
type DriveByPoint struct {
	BinLoM     int
	BinHiM     int
	GoodputBps float64
}

// driveByRun transits one client through an AP's cell and accumulates
// acked downlink bytes and dwell time per distance bin.
func driveByRun(seed int64, bytesPerBin, timePerBin []float64) {
	w := spatialWorld(seed)
	ch := spatialChannel
	ap := mac.NewNode(w.eng, w.air, 1, ch, true)
	cl := mac.NewNode(w.eng, w.air, 2, ch, false)
	ap.SetPosition(mac.Position{X: 0, Y: 0})

	// Drive past the AP on a road 40 m away, 900 m out on each side, at
	// 30 m/s (~110 km/h): through decode range (~270 m), carrier-sense
	// range (~400 m), and out again.
	const speed = 30.0
	traj := dynamics.PathThrough(0, speed,
		mac.Position{X: -900, Y: 40}, mac.Position{X: 900, Y: 40})
	u := dynamics.NewUpdater(w.eng, w.air, 0)
	u.Track(cl.ID, traj, nil)
	u.Start()

	flow := mac.NewBacklogged(w.eng, ap, cl.ID, 1000)
	flow.Start()

	const step = 500 * time.Millisecond
	const run = 60 * time.Second
	last := int64(0)
	for t := step; t <= run; t += step {
		w.eng.RunUntil(t)
		cur := ap.Stats.PayloadRxOK
		d := traj.PositionAt(t - step/2).DistanceTo(ap.Position())
		bin := int(d) / driveByBinM
		if bin < driveByBins {
			bytesPerBin[bin] += float64(cur - last)
			timePerBin[bin] += step.Seconds()
		}
		last = cur
	}
}

// DriveBy sweeps the drive-by transit over reps seeds and returns the
// goodput-vs-distance curve: full rate while the client is deep inside
// decode range, a sharp shoulder around the decode radius, and zero in
// the outer bins.
func DriveBy(reps int) []DriveByPoint {
	type cell struct{ bytes, secs [driveByBins]float64 }
	cells := make([]cell, reps)
	runIndexed(reps, func(i int) {
		driveByRun(int64(6011+i), cells[i].bytes[:], cells[i].secs[:])
	})
	out := make([]DriveByPoint, driveByBins)
	for b := 0; b < driveByBins; b++ {
		var bytes, secs float64
		for _, c := range cells {
			bytes += c.bytes[b]
			secs += c.secs[b]
		}
		p := DriveByPoint{BinLoM: b * driveByBinM, BinHiM: (b + 1) * driveByBinM}
		if secs > 0 {
			p.GoodputBps = bytes * 8 / secs
		}
		out[b] = p
	}
	return out
}

// DriveByTable renders the drive-by curve.
func DriveByTable(reps int) *trace.Table {
	t := &trace.Table{
		Title:   "DriveBy: downlink goodput vs AP-client distance, client transiting at 30 m/s",
		Headers: []string{"distance(m)", "goodput(Mbps)"},
	}
	for _, p := range DriveBy(reps) {
		t.AddRow(fmt.Sprintf("%d-%d", p.BinLoM, p.BinHiM), trace.Mbps(p.GoodputBps))
	}
	return t
}

// RoamingPoint is one roaming run's outcome.
type RoamingPoint struct {
	Seed          int64
	Disconnects   int
	Reconnections int
	APRecoveries  int
	OutageSec     float64
}

// roamingRun walks one client out of its AP's cell and back: beacons are
// lost past decode range, the beacon timeout sends the client to the
// backup channel where it chirps; on the way home its chirps re-enter
// the AP's (epoch-recalibrated) scanner range, the AP joins the backup
// channel, collects the chirped map, reassigns spectrum, and the client
// re-associates — one organic disconnect -> chirp -> re-associate cycle
// driven purely by mobility.
func roamingRun(seed int64) RoamingPoint {
	w := spatialWorld(seed)
	base := incumbent.SimulationBaseMap()
	apSensor := &radio.IncumbentSensor{Base: base, Prop: w.air.Prop}
	clSensor := &radio.IncumbentSensor{Base: base, Pos: mac.Position{X: 100}, Prop: w.air.Prop}
	// A long probe period keeps voluntary switching out of the way; the
	// run is about the disconnection path.
	net := core.NewNetwork(w.eng, w.air, core.Config{ProbePeriod: 30 * time.Second}, []*radio.IncumbentSensor{apSensor, clSensor})
	cl := net.Clients[0]

	// Out to 600 m (well past the ~270 m decode radius) and back, at
	// 25 m/s, departing t=5s: out of range ~t=12s, back inside ~t=38s.
	traj := dynamics.PathThrough(5*time.Second, 25,
		mac.Position{X: 100}, mac.Position{X: 600}, mac.Position{X: 100})
	u := dynamics.NewUpdater(w.eng, w.air, 200*time.Millisecond)
	u.Track(cl.ID, traj, clSensor)
	// Movement-epoch recalibration: the AP's chirp scanner tracks the
	// roamer's link budget, so chirps become detectable exactly when the
	// client is back in range.
	u.OnEpoch(func(time.Duration) {
		net.AP.Scanner.CalibrateForLink(cl.ID, mac.DefaultTxPowerDBm)
	})
	u.Start()
	net.StartDownlink(1000)

	const step = 100 * time.Millisecond
	const run = 70 * time.Second
	var outage time.Duration
	seen := false
	for t := step; t <= run; t += step {
		w.eng.RunUntil(t)
		if cl.Associated() {
			seen = true
		} else if seen {
			outage += step
		}
	}
	net.Stop()
	u.Stop()
	return RoamingPoint{
		Seed:          seed,
		Disconnects:   cl.Disconnects,
		Reconnections: cl.Reconnections,
		APRecoveries:  net.AP.Reconnections,
		OutageSec:     outage.Seconds(),
	}
}

// Roaming runs the roam-out/roam-in recovery over reps seeds.
func Roaming(reps int) []RoamingPoint {
	out := make([]RoamingPoint, reps)
	runIndexed(reps, func(i int) {
		out[i] = roamingRun(int64(9001 + 137*i))
	})
	return out
}

// RoamingTable renders the roaming outcomes.
func RoamingTable(reps int) *trace.Table {
	t := &trace.Table{
		Title:   "Roaming: client roams out of the cell and back (disconnect -> chirp -> re-associate)",
		Headers: []string{"run", "disconnects", "reconnects", "ap-recoveries", "outage(s)"},
	}
	var outages []float64
	for i, p := range Roaming(reps) {
		t.AddRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", p.Disconnects),
			fmt.Sprintf("%d", p.Reconnections),
			fmt.Sprintf("%d", p.APRecoveries),
			fmt.Sprintf("%.1f", p.OutageSec))
		outages = append(outages, p.OutageSec)
	}
	t.AddRow("mean", "", "", "", fmt.Sprintf("%.1f", trace.Mean(outages)))
	return t
}

// micChurnDuties is the mic duty-cycle sweep of the MicChurn scenario.
var micChurnDuties = []float64{0.05, 0.15, 0.30}

// micChurnCycle is the mean busy+idle cycle length of each Markov mic.
const micChurnCycle = 20 * time.Second

// markovMics builds one Markov mic per channel of free on eng, each
// flipping busy/idle at the given duty cycle over micChurnCycle on its
// own schedule, seeded seed*1009 + i*613. MicChurn, the mixed-traffic
// scenario and the dense city all build their mics here.
func markovMics(eng *sim.Engine, free []spectrum.UHF, duty float64, seed int64) ([]*incumbent.Mic, []*dynamics.Activity) {
	mics := make([]*incumbent.Mic, len(free))
	acts := make([]*dynamics.Activity, len(free))
	for i, u := range free {
		mics[i] = incumbent.NewMic(eng, u)
		acts[i] = dynamics.NewDutyActivity(eng, mics[i], duty, micChurnCycle, seed*1009+int64(i)*613)
	}
	return mics, acts
}

// defaultMicDuty is the Markov mic duty cycle on every free channel of
// the dense city (DenseCityConfig.MicDuty's default) and of the mixed
// traffic scenario.
const defaultMicDuty = 0.08

// MicChurnPoint aggregates one duty-cycle level of the churn scenario.
type MicChurnPoint struct {
	Duty         float64
	SwitchPerMin float64 // all channel switches
	IncPerMin    float64 // incumbent-forced switches
	Recoveries   float64 // completed disconnection recoveries (AP)
	BackupFrac   float64 // fraction of time the AP sat on the backup channel
	FreeFrac     float64 // fraction of time WhiteFi's channel was mic-free
	StaticFree   float64 // same for the static baseline (initial channel)
	MicBusyMean  float64 // realised mean mic duty (sanity anchor)
	GoodputMbps  float64
}

// micChurnRun drives one network through a storm of Markov microphones:
// one per free channel of the base map, each flipping busy/idle with the
// given duty cycle. WhiteFi vacates and reassigns on every hit; the
// static baseline of Section 5.3 would just sit on its initial channel
// and eat the interference.
func micChurnRun(seed int64, duty float64) MicChurnPoint {
	w := newWorld(seed)
	base := incumbent.SimulationBaseMap()
	mics, acts := markovMics(w.eng, base.FreeChannels(), duty, seed)
	apSensor := &radio.IncumbentSensor{Base: base, Mics: mics}
	clSensor := &radio.IncumbentSensor{Base: base, Mics: mics}
	net := core.NewNetwork(w.eng, w.air, core.Config{}, []*radio.IncumbentSensor{apSensor, clSensor})
	staticCh := net.AP.Channel() // what a non-adaptive network keeps
	net.StartDownlink(1000)
	for _, a := range acts {
		a.Start()
	}

	micOn := func(ch spectrum.Channel) bool {
		for _, m := range mics {
			if m.Active() && ch.Contains(m.Channel) {
				return true
			}
		}
		return false
	}

	const step = 100 * time.Millisecond
	const run = 120 * time.Second
	var freeT, staticFreeT, backupT time.Duration
	for t := step; t <= run; t += step {
		w.eng.RunUntil(t)
		if !micOn(net.AP.Channel()) {
			freeT += step
		}
		if !micOn(staticCh) {
			staticFreeT += step
		}
		if net.AP.OnBackup() {
			backupT += step
		}
	}
	goodput := float64(net.GoodputBytes()) * 8 / run.Seconds()
	net.Stop()
	for _, a := range acts {
		a.Stop()
	}

	inc := 0
	for _, s := range net.AP.Switches {
		if s.Reason == core.SwitchIncumbent {
			inc++
		}
	}
	var busy []float64
	for _, a := range acts {
		busy = append(busy, a.BusyFraction(run))
	}
	mins := run.Minutes()
	return MicChurnPoint{
		Duty:         duty,
		SwitchPerMin: float64(len(net.AP.Switches)-1) / mins, // minus the initial selection
		IncPerMin:    float64(inc) / mins,
		Recoveries:   float64(net.AP.Reconnections),
		BackupFrac:   backupT.Seconds() / run.Seconds(),
		FreeFrac:     freeT.Seconds() / run.Seconds(),
		StaticFree:   staticFreeT.Seconds() / run.Seconds(),
		MicBusyMean:  trace.Mean(busy),
		GoodputMbps:  goodput / 1e6,
	}
}

// MicChurn sweeps mic duty cycles over reps seeds on the parallel
// harness. The headline comparison: WhiteFi's interference-free fraction
// stays near 1 while the static baseline's decays with duty.
func MicChurn(reps int) []MicChurnPoint {
	cells := make([]MicChurnPoint, len(micChurnDuties)*reps)
	runIndexed(len(cells), func(i int) {
		duty := micChurnDuties[i/reps]
		cells[i] = micChurnRun(int64(7121+31*(i%reps)), duty)
	})
	out := make([]MicChurnPoint, len(micChurnDuties))
	for di, duty := range micChurnDuties {
		agg := MicChurnPoint{Duty: duty}
		for r := 0; r < reps; r++ {
			c := cells[di*reps+r]
			agg.SwitchPerMin += c.SwitchPerMin
			agg.IncPerMin += c.IncPerMin
			agg.Recoveries += c.Recoveries
			agg.BackupFrac += c.BackupFrac
			agg.FreeFrac += c.FreeFrac
			agg.StaticFree += c.StaticFree
			agg.MicBusyMean += c.MicBusyMean
			agg.GoodputMbps += c.GoodputMbps
		}
		n := float64(reps)
		agg.SwitchPerMin /= n
		agg.IncPerMin /= n
		agg.Recoveries /= n
		agg.BackupFrac /= n
		agg.FreeFrac /= n
		agg.StaticFree /= n
		agg.MicBusyMean /= n
		agg.GoodputMbps /= n
		out[di] = agg
	}
	return out
}

// MicChurnTable renders the churn sweep.
func MicChurnTable(reps int) *trace.Table {
	t := &trace.Table{
		Title:   "MicChurn: Markov mics on every free channel (20 s mean cycle); WhiteFi vs static",
		Headers: []string{"duty", "switch/min", "inc/min", "recoveries", "backup-frac", "free-frac", "static-free", "goodput(Mbps)"},
	}
	for _, p := range MicChurn(reps) {
		t.AddRow(fmt.Sprintf("%.2f", p.Duty),
			fmt.Sprintf("%.2f", p.SwitchPerMin),
			fmt.Sprintf("%.2f", p.IncPerMin),
			fmt.Sprintf("%.1f", p.Recoveries),
			fmt.Sprintf("%.3f", p.BackupFrac),
			fmt.Sprintf("%.3f", p.FreeFrac),
			fmt.Sprintf("%.3f", p.StaticFree),
			fmt.Sprintf("%.2f", p.GoodputMbps))
	}
	return t
}
