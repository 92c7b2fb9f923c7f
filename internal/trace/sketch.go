package trace

import (
	"sort"

	"whitefi/internal/checkpoint"
)

// Quantile is a streaming estimator of one quantile using the P² (P
// squared) algorithm of Jain & Chlamtac (CACM 1985): five markers whose
// heights approximate the quantile are maintained with parabolic
// interpolation, so the estimate needs O(1) memory regardless of how
// many observations flow through it. The traffic engine uses one per
// tracked percentile per flow — per-flow delay percentiles at city
// scale without retaining per-packet samples.
//
// Estimates are exact for the first five observations and typically
// within a fraction of a percent of the true quantile afterwards for
// smooth distributions; the estimator is deterministic in the
// observation sequence.
type Quantile struct {
	// P is the target quantile in (0, 1), e.g. 0.95.
	P float64

	n   int        // observations seen
	q   [5]float64 // marker heights
	pos [5]float64 // marker positions (1-based observation ranks)
	des [5]float64 // desired marker positions
	inc [5]float64 // per-observation desired-position increments
}

// NewQuantile returns an estimator for quantile p in (0, 1).
func NewQuantile(p float64) *Quantile {
	s := &Quantile{}
	s.Reset(p)
	return s
}

// Reset re-targets the estimator at quantile p and discards all state.
func (s *Quantile) Reset(p float64) {
	if p <= 0 {
		p = 0.0001
	}
	if p >= 1 {
		p = 0.9999
	}
	*s = Quantile{P: p}
	s.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	s.des = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	s.pos = [5]float64{1, 2, 3, 4, 5}
}

// Count returns the number of observations added.
func (s *Quantile) Count() int { return s.n }

// Add feeds one observation.
func (s *Quantile) Add(x float64) {
	if s.n < 5 {
		s.q[s.n] = x
		s.n++
		if s.n == 5 {
			sort.Float64s(s.q[:])
		}
		return
	}
	// Locate the marker cell k with q[k] <= x < q[k+1], extending the
	// extreme markers when x falls outside them.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	s.n++
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := 0; i < 5; i++ {
		s.des[i] += s.inc[i]
	}
	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.des[i] - s.pos[i]
		if (d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			if h := s.parabolic(i, sign); s.q[i-1] < h && h < s.q[i+1] {
				s.q[i] = h
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i one position in direction sign.
func (s *Quantile) parabolic(i int, sign float64) float64 {
	return s.q[i] + sign/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+sign)*(s.q[i+1]-s.q[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-sign)*(s.q[i]-s.q[i-1])/(s.pos[i]-s.pos[i-1]))
}

// linear is the fallback height prediction when the parabola would
// leave the markers unsorted.
func (s *Quantile) linear(i int, sign float64) float64 {
	j := i + int(sign)
	return s.q[i] + sign*(s.q[j]-s.q[i])/(s.pos[j]-s.pos[i])
}

// Value returns the current quantile estimate, 0 before any
// observation. With fewer than five observations it is computed exactly
// from the retained samples.
func (s *Quantile) Value() float64 {
	if s.n == 0 {
		return 0
	}
	if s.n < 5 {
		tmp := append([]float64(nil), s.q[:s.n]...)
		sort.Float64s(tmp)
		rank := int(s.P * float64(s.n))
		if rank >= s.n {
			rank = s.n - 1
		}
		return tmp[rank]
	}
	return s.q[2]
}

// DigestState writes the sketch's full internal state to d, for
// checkpoint section digests: the target quantile, observation count,
// marker heights, positions and desired positions. A P² sketch is
// order-sensitive mid-stream (its markers encode the adjustment
// history, not just the observed set), so checkpoint verification must
// digest these internals rather than Value() alone — two sketches can
// briefly agree on the estimate while holding different marker states
// that diverge on later observations.
func (s *Quantile) DigestState(d *checkpoint.Digest) {
	d.Row("p2").Float("p", s.P).Int("n", int64(s.n)).Floats("q", s.q[:]).Floats("pos", s.pos[:]).
		Floats("des", s.des[:]).End()
}
