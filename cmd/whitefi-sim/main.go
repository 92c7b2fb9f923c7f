// Command whitefi-sim runs a WhiteFi network scenario and prints a
// periodic trace of the operating channel, the MCham-driven switches,
// and the achieved goodput.
//
// Usage:
//
//	whitefi-sim -clients 3 -duration 60s -background 8 -seed 7
//	whitefi-sim -map building5 -mic-at 20s
//	whitefi-sim -topology star -range 200 -clients 4
//	whitefi-sim -topology star -mobility rwp -speed 15 -mic-duty 0.2
//	whitefi-sim -dense 334 -duration 30s
//	whitefi-sim -faults -fault-rate 2 -duration 120s
//	whitefi-sim -json | jq .goodput_mbps
//	whitefi-sim -serve :8090 -serve-workers 4
//	whitefi-sim -scenario densecity -scenario-config '{"aps":8}' \
//	    -checkpoint-at 5s -checkpoint city.ckpt
//	whitefi-sim -restore city.ckpt | jq .result.GoodputMbps
//
// The default topology is "colocated": every node in perfect range on
// the legacy flat medium, reproducing the paper's single-cell setups
// bit-for-bit. The spatial topologies place nodes on a plane under the
// log-distance propagation model (-range sets the AP-client spacing in
// meters), so carrier sense, delivery, and each node's spectrum view
// become position dependent.
//
// The dynamics flags make the world time-varying. -mobility rwp moves
// every client on a seeded random-waypoint walk inside the cell;
// -mobility roam walks the first client out of the cell and back, so the
// disconnect -> chirp -> re-associate recovery runs organically. Both
// imply the spatial medium. -mic-duty d > 0 replaces the one scripted
// microphone with a Markov mic per free channel (exponential busy/idle
// holding times, busy fraction d over a 20 s mean cycle), forcing
// incumbent switches on the mic's own schedule. With -json, positions,
// mic transitions, disconnections and recoveries are emitted as JSON
// lines alongside the periodic trace.
//
// -dense N switches to the city-scale dense-deployment scenario: N
// WhiteFi BSSs (one AP, two clients each) scattered over square
// kilometers of log-distance medium on the neighbor-culled air medium,
// with per-AP MCham channel assignment and Markov mics; the summary
// metrics (aggregate goodput, assignment quality, interference-free
// fraction) are printed at the end, or emitted as one JSON record with
// -json.
//
// The traffic flags select the generated load. The default, -traffic
// backlog, keeps the legacy saturating downlink; cbr, poisson, burst
// and web switch to the heterogeneous traffic engine (one generated
// flow per client, see internal/traffic), and -uplink-frac reverses
// that fraction of flows client -> AP. Engine runs report per-flow
// telemetry — goodput, delay p50/p95/p99, jitter, queue drops — as a
// table at the end, or as one "flow" JSON record per flow with -json.
// -dense accepts the same two flags (backlog selects the dense
// scenario's default CBR).
//
// -telemetry addr attaches the observability layer (internal/obs) and
// serves the latest metrics snapshot and trace-ring dump live over
// HTTP: GET /metrics returns the most recent snapshot JSON line, GET
// /trace the most recent span dump. Snapshot lines also stream to
// stdout when combined with -json. -telemetry-hold keeps the process
// (and the endpoints) alive for that long after the run finishes, so
// an external prober can still read the final snapshot.
//
// -faults arms the deterministic fault injector (internal/fault)
// against the AP: seeded crash/restart cycles, scanner stalls and
// overload bursts, plus a Gilbert–Elliott bursty-loss overlay on the
// medium. -fault-rate scales the schedule (1 = default, 2 = twice as
// violent) and -fault-seed fixes the fault realisation independently of
// -seed (0 derives it from -seed). Fault events and the per-client
// outage episodes (cause, duration, rendezvous path) are printed after
// the run — or emitted live as "fault" and "outage" JSON lines with
// -json — together with MTTR and p95 outage aggregates.
//
// -serve addr turns the process into the simulation server
// (internal/server): scenario sessions are submitted, streamed, paused,
// checkpointed, forked and resumed over a JSON/JSONL HTTP API, with at
// most -serve-workers runs advancing concurrently. The batch flags
// drive the same sessions without the server: -scenario kind with
// -scenario-config runs one session to the end and prints its result
// JSON; adding -checkpoint-at t -checkpoint file writes a checkpoint
// document mid-run; -restore file replays such a document and continues
// it to the end, printing a result byte-identical to the uninterrupted
// run's.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"whitefi/internal/core"
	"whitefi/internal/dynamics"
	"whitefi/internal/exp"
	"whitefi/internal/fault"
	"whitefi/internal/incumbent"
	"whitefi/internal/mac"
	"whitefi/internal/obs"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
	"whitefi/internal/trace"
	"whitefi/internal/traffic"
)

// stepRecord is one -json periodic trace line.
type stepRecord struct {
	T          float64 `json:"t_s"`
	Channel    string  `json:"channel"`
	Backup     string  `json:"backup"`
	GoodputMbs float64 `json:"goodput_mbps"`
	Associated int     `json:"associated"`
	Clients    int     `json:"clients"`
	// Cumulative disconnection counters across all clients; only moving
	// or mic-churned runs ever see them advance.
	Disconnects int `json:"disconnects"`
	Reconnects  int `json:"reconnects"`
}

// switchRecord is one -json switch-log line.
type switchRecord struct {
	Event  string  `json:"event"`
	T      float64 `json:"t_s"`
	From   string  `json:"from"`
	To     string  `json:"to"`
	Reason string  `json:"reason"`
	Metric float64 `json:"metric"`
}

// denseRecord is the -json summary line of a -dense run.
type denseRecord struct {
	Event        string  `json:"event"`
	APs          int     `json:"aps"`
	Nodes        int     `json:"nodes"`
	Tiles        int     `json:"tiles,omitempty"`
	Shards       int     `json:"shards,omitempty"`
	AreaKm2      float64 `json:"area_km2"`
	GoodputMbps  float64 `json:"goodput_mbps"`
	MChamQuality float64 `json:"mcham_quality"`
	IFreeFrac    float64 `json:"interference_free_frac"`
	SwitchPerBSS float64 `json:"switches_per_bss"`
	FlowP50Ms    float64 `json:"flow_delay_p50_ms"`
	FlowP95Ms    float64 `json:"flow_delay_p95_ms"`
	FlowDropRate float64 `json:"flow_drop_rate"`
	WallSec      float64 `json:"wall_s"`
}

// startTelemetry builds the live observer for -telemetry: wall timers
// on, snapshot lines copied to stdout when jsonOut is set, and the
// /metrics + /trace endpoints served immediately. Returns nils when
// addr is empty.
func startTelemetry(addr string, jsonOut bool) (*obs.Observer, *obs.Server) {
	if addr == "" {
		return nil, nil
	}
	o := &obs.Observer{Wall: obs.NewWallTimers()}
	if jsonOut {
		o.Out = os.Stdout
	}
	srv, err := o.Serve(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "telemetry: serving /metrics and /trace on %s\n", srv.Addr())
	return o, srv
}

// holdTelemetry keeps the telemetry endpoints alive for the post-run
// hold window, then shuts the server down.
func holdTelemetry(srv *obs.Server, hold time.Duration) {
	if srv == nil {
		return
	}
	if hold > 0 {
		time.Sleep(hold)
	}
	srv.Close()
}

// runDenseCity executes the exp.DenseCity scenario once with the CLI's
// duration split into the default settle plus the remaining measurement
// window, and prints (or emits as JSON) the summary metrics.
func runDenseCity(aps, tiles, shards, workers int, duration time.Duration, seed int64, micDuty float64, models []traffic.Model, uplinkFrac float64, jsonOut bool, o *obs.Observer) {
	cfg := exp.DenseCityConfig{APs: aps, Tiles: tiles, Shards: shards, Workers: workers,
		Seed: seed, MicDuty: micDuty, Traffic: models, UplinkFrac: uplinkFrac, Obs: o}
	if len(models) > 0 {
		cfg.QueueLimit = 128 // engine runs bound the AP egress queue so drops are measured
	}
	if duration > 0 {
		settle := 2 * time.Second
		if duration < 2*settle {
			// Honor short -duration values too: split them evenly
			// rather than falling back to the 10 s default run.
			settle = duration / 2
		}
		cfg.Settle, cfg.Measure = settle, duration-settle
	}
	r := exp.DenseCityRun(cfg)
	if jsonOut {
		em := trace.NewJSONEmitter(os.Stdout)
		em.Emit(denseRecord{
			Event: "dense", APs: r.APs, Nodes: r.Nodes,
			Tiles: r.Tiles, Shards: r.Shards, AreaKm2: r.AreaKm2,
			GoodputMbps: r.GoodputMbps, MChamQuality: r.MChamQuality,
			IFreeFrac: r.InterferenceFreeFrac, SwitchPerBSS: r.SwitchesPerBSS,
			FlowP50Ms: r.FlowDelayP50Ms, FlowP95Ms: r.FlowDelayP95Ms,
			FlowDropRate: r.FlowDropRate,
			WallSec:      r.WallClock.Seconds(),
		})
		if err := em.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "json trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("dense city: %d APs (%d nodes) over %.1f km²\n", r.APs, r.Nodes, r.AreaKm2)
	fmt.Printf("  goodput            %8.1f Mbps aggregate\n", r.GoodputMbps)
	fmt.Printf("  mcham quality      %8.3f (1.0 = every AP locally optimal)\n", r.MChamQuality)
	fmt.Printf("  interference-free  %8.3f of BSS-time\n", r.InterferenceFreeFrac)
	fmt.Printf("  switches           %8.2f per BSS\n", r.SwitchesPerBSS)
	fmt.Printf("  flow delay         %8.1f ms p50, %.1f ms p95 across flows\n", r.FlowDelayP50Ms, r.FlowDelayP95Ms)
	fmt.Printf("  flow drop rate     %8.4f of generated packets\n", r.FlowDropRate)
	fmt.Printf("  wall clock         %8.1fs\n", r.WallClock.Seconds())
}

// placements returns per-node positions (index 0 the AP, then clients)
// for a topology, or ok=false for an unknown name.
func placements(topology string, clients int, rangeM float64) (pos []mac.Position, spatial, ok bool) {
	pos = make([]mac.Position, clients+1)
	switch topology {
	case "colocated":
		return pos, false, true
	case "line":
		// AP at the origin, clients strung out along +x every rangeM.
		for i := 1; i <= clients; i++ {
			pos[i] = mac.Position{X: float64(i) * rangeM}
		}
		return pos, true, true
	case "star":
		// Clients on a circle of radius rangeM around the AP.
		for i := 1; i <= clients; i++ {
			a := 2 * math.Pi * float64(i-1) / float64(clients)
			pos[i] = mac.Position{X: rangeM * math.Cos(a), Y: rangeM * math.Sin(a)}
		}
		return pos, true, true
	}
	return nil, false, false
}

func main() {
	clients := flag.Int("clients", 2, "number of associated clients")
	duration := flag.Duration("duration", 60*time.Second, "virtual run time")
	background := flag.Int("background", 4, "background AP/client pairs on random free channels")
	bgDelay := flag.Duration("bg-delay", 30*time.Millisecond, "background CBR inter-packet delay")
	seed := flag.Int64("seed", 1, "simulation seed")
	mapName := flag.String("map", "campus", "spectrum map: campus | building5 | empty")
	micAt := flag.Duration("mic-at", 0, "turn a wireless mic on on the AP's channel at this time (0 = never)")
	topology := flag.String("topology", "colocated", "node placement: colocated | line | star (non-colocated enables log-distance propagation)")
	rangeM := flag.Float64("range", 150, "AP-client spacing in meters for spatial topologies")
	mobility := flag.String("mobility", "none", "client mobility: none | rwp (seeded random waypoint) | roam (first client roams out and back); non-none implies the spatial medium")
	speed := flag.Float64("speed", 15, "mobility speed in m/s")
	micDuty := flag.Float64("mic-duty", 0, "Markov mic duty cycle: one stochastic mic per free channel, busy this fraction of a 20 s mean cycle (0 = only the scripted -mic-at mic)")
	denseAPs := flag.Int("dense", 0, "run the city-scale dense-deployment scenario with this many APs (2 clients each) instead of the single-BSS scenario; -duration, -seed, -mic-duty, -traffic and -uplink-frac apply")
	denseTiles := flag.Int("tiles", 0, "tile the -dense city into this many guard-spaced regions and run it on the sharded parallel engine (0 = the legacy single-region serial city)")
	denseShards := flag.Int("shards", 0, "shard count of the tiled -dense city: results are byte-identical at any value; 0 = one shard per tile")
	denseWorkers := flag.Int("workers", 0, "worker threads driving the shards (0 = GOMAXPROCS); results are byte-identical at any value")
	trafficModel := flag.String("traffic", "backlog", "per-client flow model: backlog (legacy saturating downlink) | cbr | poisson | burst | web | mixed (cycle all four)")
	uplinkFrac := flag.Float64("uplink-frac", 0, "fraction of generated flows reversed client -> AP (traffic engine models only)")
	faults := flag.Bool("faults", false, "inject seeded faults against the AP: crash/restart cycles, scanner stalls, overload bursts and bursty frame loss")
	faultRate := flag.Float64("fault-rate", 1, "fault schedule scale: 1 = default means, 2 = twice as many faults")
	faultSeed := flag.Int64("fault-seed", 0, "seed of the fault realisation (0 = derive from -seed)")
	jsonOut := flag.Bool("json", false, "emit the periodic trace as JSON lines instead of text")
	telemetry := flag.String("telemetry", "", "serve live observability on this address (e.g. :8080): GET /metrics returns the latest metrics snapshot, GET /trace the latest span-ring dump (empty = off)")
	teleHold := flag.Duration("telemetry-hold", 0, "keep the -telemetry endpoints alive this long after the run finishes")
	flag.Parse()

	// Session-based modes (-serve / -scenario / -restore, see serve.go)
	// replace the classic single-scenario run entirely.
	if maybeSession() {
		return
	}

	var models []traffic.Model
	switch *trafficModel {
	case "backlog":
	case "mixed":
		models = traffic.Models()
	default:
		m, ok := traffic.ParseModel(*trafficModel)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown traffic model %q\n", *trafficModel)
			os.Exit(2)
		}
		models = []traffic.Model{m}
	}
	if *uplinkFrac > 0 && len(models) == 0 {
		fmt.Fprintf(os.Stderr, "-uplink-frac needs a traffic engine model: -traffic cbr|poisson|burst|web|mixed\n")
		os.Exit(2)
	}

	if *denseAPs > 0 {
		o, srv := startTelemetry(*telemetry, *jsonOut)
		runDenseCity(*denseAPs, *denseTiles, *denseShards, *denseWorkers, *duration, *seed, *micDuty, models, *uplinkFrac, *jsonOut, o)
		holdTelemetry(srv, *teleHold)
		return
	}

	if *mobility != "none" && *mobility != "rwp" && *mobility != "roam" {
		fmt.Fprintf(os.Stderr, "unknown mobility %q\n", *mobility)
		os.Exit(2)
	}

	base := incumbent.SimulationBaseMap()
	switch *mapName {
	case "campus":
		base = incumbent.SimulationBaseMap()
	case "building5":
		base = incumbent.BuildingFiveMap()
	case "empty":
		base = incumbent.SimulationBaseMap().And(incumbent.BuildingFiveMap()) // few incumbents
	default:
		fmt.Fprintf(os.Stderr, "unknown map %q\n", *mapName)
		os.Exit(2)
	}

	pos, spatial, ok := placements(*topology, *clients, *rangeM)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topology)
		os.Exit(2)
	}
	// Mobility needs geometry to matter: a moving node on the flat
	// medium never leaves range.
	spatial = spatial || *mobility != "none"

	eng := sim.New(*seed)
	air := mac.NewAir(eng)
	var prop mac.Propagation
	if spatial {
		prop = mac.LogDistance{}
		air.Prop = prop
	}

	var em *trace.JSONEmitter
	if *jsonOut {
		em = trace.NewJSONEmitter(os.Stdout)
	}

	// Incumbent microphones: one scripted mic by default (-mic-at), or a
	// stochastic Markov mic per free channel at -mic-duty > 0.
	mic := incumbent.NewMic(eng, 0)
	mics := []*incumbent.Mic{mic}
	var acts []*dynamics.Activity
	if *micDuty > 0 {
		mics = nil
		for i, u := range base.FreeChannels() {
			m := incumbent.NewMic(eng, u)
			mics = append(mics, m)
			acts = append(acts, dynamics.NewDutyActivity(eng, m, *micDuty, 20*time.Second, *seed*1009+int64(i)*613))
		}
	}
	sensors := make([]*radio.IncumbentSensor, *clients+1)
	for i := range sensors {
		sensors[i] = &radio.IncumbentSensor{Base: base, Mics: mics, Pos: pos[i], Prop: prop}
	}
	net := core.NewNetwork(eng, air, core.Config{ProbePeriod: 2 * time.Second}, sensors)
	if len(models) > 0 {
		mix := traffic.Mix{Models: models, UplinkFrac: *uplinkFrac, Seed: *seed}
		net.StartTraffic(mix.Specs(*clients), 128)
	} else {
		net.StartDownlink(1000)
	}

	// Fault injection: seeded crash/stall/overload processes against the
	// AP plus a Gilbert–Elliott loss overlay on the medium. Outage
	// episodes stream out as JSON lines the moment they close; the fault
	// events themselves are reported after the run from inj.Events.
	var inj *fault.Injector
	if *faults {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed*6151 + 11
		}
		inj = fault.NewInjector(eng, fault.Config{Seed: fseed, Rate: *faultRate})
		inj.AddTarget(net.AP.ID, net.AP)
		inj.Start()
		ge := fault.NewGilbertElliott(eng, air, fseed*31+7)
		ge.Start()
		if em != nil {
			for _, c := range net.Clients {
				c.OnOutage = func(r trace.OutageRecord) { em.Emit(r) }
			}
		}
	}

	// Live observability (-telemetry): register every subsystem with
	// the observer and trace mic transitions and outage closures as
	// point events.
	ob, tele := startTelemetry(*telemetry, *jsonOut)
	var trc *obs.Tracer
	var micOnID, micOffID obs.SpanID
	if ob != nil {
		ob.Attach(eng)
		obs.RegisterEngine(ob.Reg, eng)
		obs.RegisterAir(ob.Reg, air)
		obs.RegisterAirtime(ob.Reg, air, time.Second, base.FreeChannels())
		nodes := []*mac.Node{net.AP.Node}
		for _, c := range net.Clients {
			nodes = append(nodes, c.Node)
		}
		obs.RegisterNodes(ob.Reg, "mac", func() []*mac.Node { return nodes })
		if len(net.Flows) > 0 {
			obs.RegisterFlows(ob.Reg, net.Flows)
		}
		obs.RegisterClients(ob.Reg, net.Clients)
		obs.RegisterAP(ob.Reg, net.AP)
		obs.RegisterScanner(ob.Reg, "radio.ap", net.AP.Scanner)
		if inj != nil {
			obs.RegisterInjector(ob.Reg, inj)
		}
		ob.Reg.GaugeFunc("incumbent.active_mics", func() float64 {
			n := 0
			for _, m := range mics {
				if m.Active() {
					n++
				}
			}
			return float64(n)
		})
		trc = ob.Tracer()
		micOnID, micOffID = trc.ID("mic.on"), trc.ID("mic.off")
		outageID := trc.ID("core.outage")
		for _, c := range net.Clients {
			prev := c.OnOutage
			c.OnOutage = func(r trace.OutageRecord) {
				if prev != nil {
					prev(r)
				}
				trc.Event(outageID, int64(r.Node))
			}
		}
		ob.Start()
	}

	// Observe every mic transition (after the AP and clients hooked
	// their own watchers, so the chain stays intact).
	for _, m := range mics {
		m := m
		prev := m.OnChange
		m.OnChange = func(active bool) {
			if prev != nil {
				prev(active)
			}
			if trc != nil {
				id := micOffID
				if active {
					id = micOnID
				}
				trc.Event(id, int64(m.Channel))
			}
			if em != nil {
				em.Emit(trace.MicRecord{Event: "mic", T: eng.Now().Seconds(), Channel: m.Channel.String(), Active: active})
			} else {
				state := "OFF"
				if active {
					state = "ON"
				}
				fmt.Printf("%8s  mic %s on %v\n", eng.Now(), state, m.Channel)
			}
		}
	}
	for _, a := range acts {
		a.Start()
	}

	// Mobility: trajectories applied by the epoch updater, with the AP's
	// chirp scanner recalibrated every epoch for the weakest client link
	// so roamers are re-acquired exactly when their budget allows.
	var upd *dynamics.Updater
	if *mobility != "none" {
		upd = dynamics.NewUpdater(eng, air, 0)
		for i, c := range net.Clients {
			start := pos[i+1]
			switch *mobility {
			case "rwp":
				upd.Track(c.ID, &dynamics.RandomWaypoint{
					Seed:  *seed*101 + int64(i),
					Min:   mac.Position{X: -2 * *rangeM, Y: -2 * *rangeM},
					Max:   mac.Position{X: 2 * *rangeM, Y: 2 * *rangeM},
					Start: start, SpeedMin: *speed / 2, SpeedMax: *speed,
					Pause: 2 * time.Second,
				}, sensors[i+1])
			case "roam":
				if i != 0 {
					continue
				}
				// Walk out to 4x the decode radius' neighborhood and back.
				far := mac.Position{X: start.X + 600, Y: start.Y}
				upd.Track(c.ID, dynamics.PathThrough(5*time.Second, *speed, start, far, start), sensors[i+1])
			}
		}
		upd.OnEpoch(func(time.Duration) {
			minRx := 0.0
			for i, c := range net.Clients {
				rx := air.RxPower(c.ID, net.AP.ID, mac.DefaultTxPowerDBm)
				if i == 0 || rx < minRx {
					minRx = rx
				}
			}
			net.AP.Scanner.CalibrateFor(minRx)
		})
		upd.Start()
	}

	rng := rand.New(rand.NewSource(*seed * 13))
	free := base.FreeChannels()
	for i := 0; i < *background && len(free) > 0; i++ {
		u := free[rng.Intn(len(free))]
		p := mac.NewBackgroundPair(eng, air, 2000+2*i, 2001+2*i,
			spectrum.Chan(u, spectrum.W5), 1000, *bgDelay)
		if spatial {
			// Scatter background pairs inside the network's footprint so
			// they matter to at least part of the topology.
			at := mac.Position{X: (rng.Float64()*2 - 1) * *rangeM, Y: (rng.Float64()*2 - 1) * *rangeM}
			p.AP.SetPosition(at)
			p.Client.SetPosition(mac.Position{X: at.X + 20, Y: at.Y})
		}
	}

	if *micAt > 0 && *micDuty <= 0 {
		eng.Schedule(*micAt, func() {
			mic.Channel = net.AP.Channel().Center
			mic.TurnOn()
		})
	}

	if em == nil {
		fmt.Printf("map: %s   topology: %s   clients: %d   background: %d @ %v   mobility: %s   mic-duty: %.2f\n",
			base, *topology, *clients, *background, *bgDelay, *mobility, *micDuty)
	}
	var wallRun *obs.Phase
	if ob != nil {
		wallRun = ob.Wall.Phase("run")
		wallRun.Start()
	}
	var last int64
	step := 5 * time.Second
	for t := step; t <= *duration; t += step {
		eng.RunUntil(t)
		cur := net.GoodputBytes()
		bps := float64(cur-last) * 8 / step.Seconds()
		last = cur
		assoc, disc, rec := 0, 0, 0
		for _, c := range net.Clients {
			if c.Associated() {
				assoc++
			}
			disc += c.Disconnects
			rec += c.Reconnections
		}
		if em != nil {
			em.Emit(stepRecord{
				T:           t.Seconds(),
				Channel:     net.AP.Channel().String(),
				Backup:      net.AP.Backup().String(),
				GoodputMbs:  bps / 1e6,
				Associated:  assoc,
				Clients:     len(net.Clients),
				Disconnects: disc,
				Reconnects:  rec,
			})
			if upd != nil {
				for _, c := range net.Clients {
					p := air.PositionOf(c.ID)
					em.Emit(trace.PositionRecord{
						Event: "pos", T: t.Seconds(), ID: c.ID, X: p.X, Y: p.Y,
						DistM: p.DistanceTo(air.PositionOf(net.AP.ID)),
					})
				}
			}
		} else {
			fmt.Printf("%8s  channel=%-14v backup=%-14v goodput=%6s Mbps  associated=%d/%d  disc=%d rec=%d\n",
				t, net.AP.Channel(), net.AP.Backup(), trace.Mbps(bps), assoc, len(net.Clients), disc, rec)
		}
		air.Prune(t - 15*time.Second)
	}
	if wallRun != nil {
		wallRun.Stop()
	}
	if ob != nil {
		ob.Stop()
		ob.Flush()
	}

	if em != nil {
		for _, s := range net.AP.Switches {
			em.Emit(switchRecord{
				Event: "switch", T: s.At.Seconds(),
				From: s.From.String(), To: s.To.String(),
				Reason: s.Reason.String(), Metric: s.Metric,
			})
		}
		for _, f := range net.Flows {
			em.Emit(f.Record(*duration))
		}
		if inj != nil {
			for _, e := range inj.Events {
				em.Emit(trace.FaultRecord{
					Event: "fault", T: e.At.Seconds(),
					Kind: e.Kind, Target: e.Target, DurS: e.Dur.Seconds(),
				})
			}
			// Orphans: episodes still open when the run ended.
			for _, c := range net.Clients {
				if open, ok := c.OpenOutage(); ok {
					em.Emit(open)
				}
			}
		}
		if err := em.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "json trace: %v\n", err)
			os.Exit(1)
		}
		holdTelemetry(tele, *teleHold)
		return
	}
	fmt.Println("\nswitch log:")
	for _, s := range net.AP.Switches {
		fmt.Printf("  %8s  %-14v -> %-14v  %s (metric %.2f)\n", s.At, s.From, s.To, s.Reason, s.Metric)
	}
	if inj != nil {
		fmt.Println("\nfault log:")
		for _, e := range inj.Events {
			fmt.Printf("  %s\n", e.Line())
		}
		var recs []trace.OutageRecord
		open := 0
		for _, c := range net.Clients {
			recs = append(recs, c.Outages...)
			if o, ok := c.OpenOutage(); ok {
				recs = append(recs, o)
				open++
			}
		}
		fmt.Println("\noutage log:")
		for _, r := range recs {
			fmt.Printf("  %s\n", r.Line())
		}
		fmt.Printf("\noutages: %d closed, %d open   mttr=%.0f ms   p95=%.0f ms\n",
			len(recs)-open, open, trace.MTTRMs(recs), trace.OutageP95Ms(recs))
	}
	if len(net.Flows) > 0 {
		t := &trace.Table{
			Title:   "per-flow telemetry:",
			Headers: []string{"flow", "model", "dir", "goodput(Mbps)", "p50(ms)", "p95(ms)", "p99(ms)", "jitter(ms)", "delivered", "dropped"},
		}
		for _, f := range net.Flows {
			r := f.Record(*duration)
			t.AddRow(fmt.Sprintf("%d", r.ID), r.Model, r.Direction,
				fmt.Sprintf("%.3f", r.GoodputMbps),
				fmt.Sprintf("%.1f", r.DelayP50Ms),
				fmt.Sprintf("%.1f", r.DelayP95Ms),
				fmt.Sprintf("%.1f", r.DelayP99Ms),
				fmt.Sprintf("%.2f", r.JitterMs),
				fmt.Sprintf("%d", r.Delivered),
				fmt.Sprintf("%d", r.QueueDropped))
		}
		fmt.Println()
		t.Render(os.Stdout)
	}
	holdTelemetry(tele, *teleHold)
}
