package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"whitefi/internal/checkpoint"
)

// refQuantileDigest is the fmt rendering that Quantile.DigestState
// replaced, kept verbatim as the reference its bytes must equal.
func refQuantileDigest(s *Quantile, w io.Writer) {
	fmt.Fprintf(w, "p2 p=%v n=%d q=%v pos=%v des=%v\n", s.P, s.n, s.q, s.pos, s.des)
}

// refOutageLine is the fmt rendering that OutageRecord.Line replaced.
func refOutageLine(r OutageRecord) string {
	end := "open"
	if r.Closed() {
		end = fmt.Sprintf("%.3f", r.EndMs)
	}
	return fmt.Sprintf("node=%d cause=%s start=%.3f end=%s dur=%.3f path=%s",
		r.Node, r.Cause, r.StartMs, end, r.DurMs, r.Path)
}

var digestEdgeFloats = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, 1e21, -4e22, 1e20, 0.0001, 1e-5, 0.0005, 0.00049999, 2.5e-3, 1234.5678, -0.0004}

func digestFloat(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return digestEdgeFloats[r.Intn(len(digestEdgeFloats))]
	case 1:
		return math.Float64frombits(r.Uint64())
	}
	return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(12)-4))
}

// TestQuantileDigestMatchesFmt: sketches holding random and edge marker
// values, and sketches fed real streams, render the former fmt bytes.
func TestQuantileDigestMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		s := &Quantile{P: digestFloat(r), n: int(int64(r.Uint64()) >> r.Intn(64))}
		if i%2 == 0 {
			s = NewQuantile(0.95)
			for k := r.Intn(40); k > 0; k-- {
				s.Add(r.ExpFloat64())
			}
		} else {
			for k := range s.q {
				s.q[k], s.pos[k], s.des[k] = digestFloat(r), digestFloat(r), digestFloat(r)
			}
		}
		var want, got bytes.Buffer
		refQuantileDigest(s, &want)
		d := checkpoint.NewDigest(&got)
		s.DigestState(d)
		d.Flush()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("sketch %d:\n got %q\nwant %q", i, got.Bytes(), want.Bytes())
		}
	}
}

// TestOutageLineMatchesFmt: outage lines, open and closed, with edge
// times and causes, keep their former fmt rendering.
func TestOutageLineMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	causes := []string{"", "mic", "ap-crash", "a b", "ünï", "\xff"}
	for i := 0; i < 5000; i++ {
		o := OutageRecord{Node: int(int64(r.Uint64()) >> r.Intn(64)), Cause: causes[r.Intn(len(causes))],
			StartMs: digestFloat(r), EndMs: digestFloat(r), DurMs: digestFloat(r), Path: causes[r.Intn(len(causes))]}
		if i%3 == 0 {
			o.EndMs, o.DurMs = 0, 0
		}
		if got, want := o.Line(), refOutageLine(o); got != want {
			t.Fatalf("got  %q\nwant %q", got, want)
		}
	}
}
