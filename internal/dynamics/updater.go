package dynamics

import (
	"time"

	"whitefi/internal/incumbent"
	"whitefi/internal/mac"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
)

// DefaultEpoch is the default mobility epoch: positions are re-sampled
// ten times a virtual second, fine enough that a node moving at
// vehicular speed advances a few meters per epoch.
const DefaultEpoch = 100 * time.Millisecond

// Updater is the epoch ticker that makes mac.Air positions a function of
// time. Every epoch it batch-applies the tracked trajectories: node
// positions on the medium (a move within one grid cell costs the
// medium no index work), the Pos of any incumbent sensor riding on a moving node, and the Pos
// of mobile incumbent stations, whose detection footprints then sweep
// across the network. Registered epoch hooks (e.g. scanner threshold
// recalibration) run after the batch, in registration order — all
// deterministic for a given seed and epoch.
type Updater struct {
	Eng   *sim.Engine
	Air   *mac.Air
	Epoch time.Duration

	nodes    []trackedNode
	stations []trackedStation
	hooks    []func(now time.Duration)
	ticker   *sim.Ticker
}

type trackedNode struct {
	id     int
	traj   Trajectory
	sensor *radio.IncumbentSensor
}

type trackedStation struct {
	st   *incumbent.Station
	traj Trajectory
}

// NewUpdater creates a stopped updater; epoch <= 0 selects DefaultEpoch.
func NewUpdater(eng *sim.Engine, air *mac.Air, epoch time.Duration) *Updater {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	return &Updater{Eng: eng, Air: air, Epoch: epoch}
}

// Track moves node id along traj. sensor, when non-nil, is kept at the
// node's position so its incumbent footprint moves with it (pass the
// node's own radio.IncumbentSensor).
func (u *Updater) Track(id int, traj Trajectory, sensor *radio.IncumbentSensor) {
	u.nodes = append(u.nodes, trackedNode{id: id, traj: traj, sensor: sensor})
}

// TrackStation moves an incumbent station along traj: a mobile
// transmitter whose audible footprint sweeps across the nodes.
func (u *Updater) TrackStation(st *incumbent.Station, traj Trajectory) {
	u.stations = append(u.stations, trackedStation{st: st, traj: traj})
}

// OnEpoch registers fn to run at the end of every epoch batch — the
// hook point for movement-dependent recalibration (e.g.
// radio.Scanner.CalibrateForLink so SIFT thresholds track link budgets).
func (u *Updater) OnEpoch(fn func(now time.Duration)) {
	u.hooks = append(u.hooks, fn)
}

// PositionAt implements Mobility from the tracked trajectories.
func (u *Updater) PositionAt(id int, t time.Duration) (mac.Position, bool) {
	for _, n := range u.nodes {
		if n.id == id {
			return n.traj.PositionAt(t), true
		}
	}
	return mac.Position{}, false
}

// Apply performs one batch update at the current virtual time. Start
// schedules it every Epoch; tests may call it directly.
func (u *Updater) Apply() {
	now := u.Eng.Now()
	for _, n := range u.nodes {
		p := n.traj.PositionAt(now)
		u.Air.SetPosition(n.id, p)
		if n.sensor != nil {
			n.sensor.Pos = p
		}
	}
	for _, s := range u.stations {
		s.st.Pos = s.traj.PositionAt(now)
	}
	for _, fn := range u.hooks {
		fn(now)
	}
}

// Start applies the initial positions now and begins ticking.
func (u *Updater) Start() {
	if u.ticker != nil {
		return
	}
	u.Apply()
	u.ticker = u.Eng.Every(u.Epoch, u.Apply)
}

// Stop halts the ticker; positions keep their last applied values.
func (u *Updater) Stop() {
	if u.ticker != nil {
		u.ticker.Stop()
		u.ticker = nil
	}
}
