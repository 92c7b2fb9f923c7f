package traffic

import (
	"math/rand"
	"time"

	"whitefi/internal/phy"
	"whitefi/internal/spectrum"
)

// Model identifies a flow generator family.
type Model int

// The flow models of the engine.
const (
	// CBR sends a fixed-size packet every Interval — the legacy
	// constant-bit-rate pattern, schedule-identical to mac.CBR.
	CBR Model = iota
	// Poisson draws exponential inter-packet gaps with mean Interval —
	// memoryless arrivals.
	Poisson
	// Burst is a two-state ON/OFF process: exponential holding times
	// (means MeanOn, MeanOff), CBR at Interval while ON, silence while
	// OFF — the Markov idiom of dynamics.Activity applied to load.
	Burst
	// Web is a closed-loop request/response model: the client sends a
	// small request uplink; the server answers with a page of
	// ReplyPackets data packets; after the last reply the client thinks
	// (exponential, mean Think) and repeats.
	Web
)

var modelNames = map[Model]string{
	CBR:     "cbr",
	Poisson: "poisson",
	Burst:   "burst",
	Web:     "web",
}

// String returns the model's CLI name.
func (m Model) String() string {
	if s, ok := modelNames[m]; ok {
		return s
	}
	return "model(?)"
}

// ParseModel maps a CLI name (cbr, poisson, burst, web) to its Model.
func ParseModel(s string) (Model, bool) {
	for m, name := range modelNames {
		if name == s {
			return m, true
		}
	}
	return 0, false
}

// Models lists every flow model in definition order.
func Models() []Model { return []Model{CBR, Poisson, Burst, Web} }

// Spec configures one flow. The zero value plus a Model is usable:
// withDefaults fills the rest.
type Spec struct {
	Model Model
	// Bytes is the payload size of each data packet.
	Bytes int
	// Interval is the (mean) inter-packet gap of the open-loop models.
	Interval time.Duration
	// MeanOn and MeanOff are Burst's exponential holding-time means.
	MeanOn, MeanOff time.Duration
	// RequestBytes, ReplyPackets and Think parameterize Web: request
	// payload size, data packets per page, and mean think time.
	RequestBytes int
	ReplyPackets int
	Think        time.Duration
	// Uplink reverses the data direction: client to AP. Web ignores it
	// (requests are always uplink, pages always downlink).
	Uplink bool
	// Seed drives the flow's private RNG. CBR draws nothing; the other
	// models are pure functions of (Spec, delivery sequence).
	Seed int64
}

// WithDefaults returns s with zero-valued fields filled: 1000-byte
// packets every 25 ms, 500 ms / 1.5 s burst holding times, 300-byte
// requests for 8-packet pages with 500 ms mean think time.
func (s Spec) WithDefaults() Spec {
	if s.Bytes == 0 {
		s.Bytes = 1000
	}
	if s.Interval == 0 {
		s.Interval = 25 * time.Millisecond
	}
	if s.MeanOn == 0 {
		s.MeanOn = 500 * time.Millisecond
	}
	if s.MeanOff == 0 {
		s.MeanOff = 1500 * time.Millisecond
	}
	if s.RequestBytes == 0 {
		s.RequestBytes = 300
	}
	if s.ReplyPackets == 0 {
		s.ReplyPackets = 8
	}
	if s.Think == 0 {
		s.Think = 500 * time.Millisecond
	}
	return s
}

// AirtimeOf returns the on-air duration of one of the spec's data
// packets (payload plus MAC header) at channel width w.
func (s Spec) AirtimeOf(w spectrum.Width) time.Duration {
	return phy.Airtime(w, phy.MACHeaderBytes+s.Bytes)
}

// expDur draws an exponential duration with the given mean, clamped to
// at least a millisecond so degenerate means cannot wedge the event
// loop (the dynamics.Activity holding-time contract).
func expDur(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return time.Millisecond
	}
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Mix describes a heterogeneous flow population: models assigned
// round-robin and a seeded uplink fraction. It is how scenarios turn
// "30% uplink, mixed models" into concrete per-flow Specs.
type Mix struct {
	// Models are cycled over flows in order; empty selects CBR only.
	Models []Model
	// UplinkFrac is the probability a flow is reversed client-to-AP.
	UplinkFrac float64
	// Seed drives direction assignment and per-flow generator seeds.
	Seed int64
}

// Specs materializes n per-flow Specs. Deterministic in (Mix, n): flow
// i gets Models[i%len] and its direction and seed from the mix RNG;
// every other field is Spec's default.
func (m Mix) Specs(n int) []Spec {
	models := m.Models
	if len(models) == 0 {
		models = []Model{CBR}
	}
	rng := rand.New(rand.NewSource(m.Seed*6151 + 17))
	out := make([]Spec, n)
	for i := range out {
		out[i] = Spec{
			Model:  models[i%len(models)],
			Uplink: rng.Float64() < m.UplinkFrac,
			Seed:   m.Seed*7919 + int64(i)*271 + 5,
		}.WithDefaults()
	}
	return out
}
