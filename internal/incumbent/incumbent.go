package incumbent

import (
	"math/rand"
	"sort"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/mac"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// Setting is a population-density class for locale generation.
type Setting int

// Settings, per Figure 2's methodology: urban = top 10 most populated
// cities, suburban = 10 fastest-growing suburbs, rural = 10 random towns
// with population under 6000.
const (
	Urban Setting = iota
	Suburban
	Rural
)

// String names the setting.
func (s Setting) String() string {
	switch s {
	case Urban:
		return "urban"
	case Suburban:
		return "suburban"
	case Rural:
		return "rural"
	}
	return "unknown"
}

// occupancy returns the per-channel incumbent probability for a setting.
// Denser areas have more TV stations and hence more occupied channels.
func (s Setting) occupancy() float64 {
	switch s {
	case Urban:
		return 0.68
	case Suburban:
		return 0.42
	case Rural:
		return 0.16
	}
	return 0.5
}

// GenerateLocale synthesises one locale's spectrum map for a setting.
func GenerateLocale(s Setting, rng *rand.Rand) spectrum.Map {
	var m spectrum.Map
	p := s.occupancy()
	for u := spectrum.UHF(0); u < spectrum.NumUHF; u++ {
		if rng.Float64() < p {
			m = m.SetOccupied(u)
		}
	}
	// Figure 2: every setting has at least one fragment of >= 4
	// contiguous channels somewhere; guarantee a minimum of one free
	// channel so a locale is never fully blocked.
	if m.CountFree() == 0 {
		m = m.SetFree(spectrum.UHF(rng.Intn(spectrum.NumUHF)))
	}
	return m
}

// GenerateLocales returns n locale maps for a setting, deterministically
// from the seed. The set is post-conditioned to reproduce Figure 2's
// headline facts: at least one locale has a fragment of >= 4 channels,
// and rural sets reach a fragment of >= 12 channels.
func GenerateLocales(s Setting, n int, seed int64) []spectrum.Map {
	rng := rand.New(rand.NewSource(seed))
	maps := make([]spectrum.Map, n)
	for i := range maps {
		maps[i] = GenerateLocale(s, rng)
	}
	ensureFragment := func(channels int) {
		for _, m := range maps {
			if f, ok := m.WidestFragment(); ok && f.Channels() >= channels {
				return
			}
		}
		// Carve the required fragment into a random locale, below the
		// reserved-channel boundary so it is truly contiguous.
		i := rng.Intn(len(maps))
		start := spectrum.UHF(rng.Intn(16 - channels + 1))
		m := maps[i]
		for u := start; u < start+spectrum.UHF(channels); u++ {
			m = m.SetFree(u)
		}
		maps[i] = m
	}
	ensureFragment(4)
	if s == Rural {
		ensureFragment(12)
	}
	return maps
}

// FragmentHistogram counts free fragments by width in channels across a
// set of locale maps — the quantity Figure 2 plots.
func FragmentHistogram(maps []spectrum.Map) map[int]int {
	h := map[int]int{}
	for _, m := range maps {
		for _, f := range m.Fragments() {
			h[f.Channels()]++
		}
	}
	return h
}

// CampusBuildings is the number of buildings in the Section 2.1
// measurement.
const CampusBuildings = 9

// campusBase is the shared campus-wide occupancy (13 channels occupied,
// 17 free — the spectrum map the large-scale simulations of Section
// 5.4.1 inherit, with a widest contiguous white space of 6 channels).
func campusBase() spectrum.Map {
	m, _ := spectrum.ParseMap("..XX......XXX..X..X.....XXXXXX")
	return m
}

// SimulationBaseMap returns the spectrum map used by the paper's
// large-scale simulations: 17 free UHF channels whose widest contiguous
// white space is 36 MHz (6 channels), leaving multiple placements even
// for 20 MHz channels.
func SimulationBaseMap() spectrum.Map { return campusBase() }

// CampusMaps synthesises the 9 per-building spectrum maps of Section
// 2.1: a shared base plus building-local perturbations (obstructions,
// construction material, local microphones) calibrated so the median
// pairwise Hamming distance is close to the measured value of 7.
func CampusMaps(seed int64) []spectrum.Map {
	rng := rand.New(rand.NewSource(seed))
	base := campusBase()
	const flipP = 0.13 // calibration: E[H] = 2*30*p*(1-p) ~ 6.8
	maps := make([]spectrum.Map, CampusBuildings)
	for i := range maps {
		maps[i] = SpatialFlip(base, flipP, rng)
	}
	return maps
}

// MedianPairwiseHamming computes the median Hamming distance across all
// unordered pairs of maps.
func MedianPairwiseHamming(maps []spectrum.Map) int {
	var ds []int
	for i := range maps {
		for j := i + 1; j < len(maps); j++ {
			ds = append(ds, maps[i].Hamming(maps[j]))
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Ints(ds)
	return ds[len(ds)/2]
}

// SpatialFlip applies the Section 5.4 spatial-variation model: each UHF
// channel's occupancy bit is flipped independently with probability p.
func SpatialFlip(base spectrum.Map, p float64, rng *rand.Rand) spectrum.Map {
	m := base
	for u := spectrum.UHF(0); u < spectrum.NumUHF; u++ {
		if rng.Float64() < p {
			if m.Occupied(u) {
				m = m.SetFree(u)
			} else {
				m = m.SetOccupied(u)
			}
		}
	}
	return m
}

// BuildingFiveMap returns the measured spectrum map of the prototype
// experiment in Section 5.4.2 (Building 5): free TV channels 26-30,
// 33-35, 39 and 48 — fragments of 20 MHz, 10 MHz, and two single
// channels.
func BuildingFiveMap() spectrum.Map {
	m := spectrum.MapFromBits(^uint32(0)) // all occupied
	for _, tv := range []int{26, 27, 28, 29, 30, 33, 34, 35, 39, 48} {
		u, ok := spectrum.UHFFromTV(tv)
		if !ok {
			panic("incumbent: bad building-5 channel")
		}
		m = m.SetFree(u)
	}
	return m
}

// Station is a spatially placed incumbent transmitter — a TV station or
// a fixed microphone rig — that permanently occupies one UHF channel
// within its audible footprint. Unlike the pre-drawn locale maps (which
// assign each node an occupancy map by fiat), a Station derives each
// node's occupancy bit from geometry: the channel is occupied at a
// position exactly when the station's carrier reaches it above the
// node's detection threshold under the medium's propagation model. Two
// nodes of one network can therefore genuinely disagree about the same
// channel — the spatial variation WhiteFi's chirping and MCham
// aggregation exist to handle.
//
// Stations may move: Pos is read live on every audibility query, so a
// dynamics.Updater tracking the station sweeps its detection footprint
// across the nodes as simulation time advances (a roving ENG microphone
// truck, in the paper's terms).
type Station struct {
	Channel spectrum.UHF
	Pos     mac.Position
	// PowerDBm is the station's transmit power. TV stations radiate far
	// above portable devices; the default of 0 here is deliberate so
	// tests pick explicit budgets.
	PowerDBm float64
}

// AudibleAt reports whether the station's carrier arrives at pos above
// thresholdDBm under prop (nil prop = flat medium: always audible).
func (s *Station) AudibleAt(pos mac.Position, prop mac.Propagation, thresholdDBm float64) bool {
	loss := 0.0
	if prop != nil {
		loss = prop.LossDB(s.Pos, pos)
	}
	return s.PowerDBm-loss >= thresholdDBm
}

// OccupancyAt folds a set of stations into the spectrum map seen at pos:
// base plus every station audible there.
func OccupancyAt(base spectrum.Map, stations []*Station, pos mac.Position, prop mac.Propagation, thresholdDBm float64) spectrum.Map {
	m := base
	for _, s := range stations {
		if s.AudibleAt(pos, prop, thresholdDBm) {
			m = m.SetOccupied(s.Channel)
		}
	}
	return m
}

// Mic is a wireless microphone: an incumbent that can become active on a
// UHF channel at any time, forcing WhiteFi off that channel. OnChange
// fires on every state transition.
type Mic struct {
	Channel  spectrum.UHF
	OnChange func(active bool)

	eng    *sim.Engine
	active bool
}

// NewMic creates an inactive microphone on channel u.
func NewMic(eng *sim.Engine, u spectrum.UHF) *Mic {
	return &Mic{Channel: u, eng: eng}
}

// Active reports whether the microphone is currently transmitting.
func (m *Mic) Active() bool { return m.active }

// TurnOn activates the microphone now.
func (m *Mic) TurnOn() {
	if m.active {
		return
	}
	m.active = true
	if m.OnChange != nil {
		m.OnChange(true)
	}
}

// TurnOff deactivates the microphone now.
func (m *Mic) TurnOff() {
	if !m.active {
		return
	}
	m.active = false
	if m.OnChange != nil {
		m.OnChange(false)
	}
}

// ScheduleOn turns the microphone on at virtual time at.
func (m *Mic) ScheduleOn(at time.Duration) { m.eng.Schedule(at, m.TurnOn) }

// ScheduleOff turns the microphone off at virtual time at.
func (m *Mic) ScheduleOff(at time.Duration) { m.eng.Schedule(at, m.TurnOff) }

// DigestState writes the microphone's canonical state to d, for
// checkpoint section digests: its channel and current activity.
// Scheduled on/off transitions live in the engine's pending-event
// digest, not here.
func (m *Mic) DigestState(d *checkpoint.Digest) {
	d.Row("mic").Int("u", int64(m.Channel)).Bool("active", m.active).End()
}
