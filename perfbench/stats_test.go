package main

import (
	"errors"
	"math"
	"testing"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		return xs
	}
	ties := append(seq(10), 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100)
	cases := []struct {
		name      string
		xs        []float64
		value     float64
		pct       float64
		supported bool
	}{
		{"empty", nil, 0, 0, false},
		{"one", []float64{7}, 7, 100, false},
		{"ten: fewer than 11 samples report the max", seq(10), 10, 100, false},
		{"eleven: the minimum has exactly ten beyond", seq(11), 1, 100.0 / 11, true},
		{"six hundred", seq(600), 590, 100 * 590.0 / 600, true},
		{"ties at the top are not beyond", ties, 10, 100 * 10.0 / 22, true},
		{"all equal", []float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, 3, 100, false},
	}
	for _, c := range cases {
		got := tailOf(c.xs)
		if got.Value != c.value || math.Abs(got.Pct-c.pct) > 1e-9 || got.Supported != c.supported || got.N != len(c.xs) {
			t.Errorf("%s: got %+v, want value %v pct %v supported %v", c.name, got, c.value, c.pct, c.supported)
		}
		if got.Supported {
			beyond := 0
			for _, x := range c.xs {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("%s: only %d samples beyond the tail", c.name, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := minimum([]float64{3, 1, 2}); m != 1 {
		t.Errorf("minimum %v", m)
	}
	if m := minimum(nil); m != 0 {
		t.Errorf("minimum of nothing %v", m)
	}
}

func TestFailedFracAccounting(t *testing.T) {
	var l ledger
	for i := 0; i < 6; i++ {
		l.op(failError, nil)
	}
	l.op(failError, errors.New("build failed"))
	l.op(failHTTP, errors.New("POST /api/runs: 400"))
	l.op(failVerify, errors.New("replay did not reproduce the captured state"))
	l.check(true, "pin")
	l.check(false, "result differs from its pin")
	if l.attempted != 11 || l.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 11 and 4", l.attempted, l.failed)
	}
	for _, k := range []string{failError, failHTTP, failVerify, failMismatch} {
		if l.kinds[k] != 1 {
			t.Errorf("kind %s counted %d times, want 1", k, l.kinds[k])
		}
	}
	if got := l.frac(); math.Abs(got-4.0/11) > 1e-12 {
		t.Errorf("failed_frac %v, want 4/11", got)
	}
	// A reply that fails to decode after a counted request adds a
	// failure, not an attempt.
	l.fail(failError, "status reply: unexpected EOF")
	if l.attempted != 11 || l.failed != 5 {
		t.Errorf("after fail: attempted %d failed %d", l.attempted, l.failed)
	}

	var total ledger
	total.op(failError, nil)
	total.merge(l)
	if total.attempted != 12 || total.failed != 5 || total.kinds[failError] != 2 {
		t.Errorf("merge: %+v", total)
	}
	if (&ledger{}).frac() != 0 {
		t.Error("empty ledger frac")
	}
}

// TestServeControlPerSet checks that serve's control metrics are the
// median over sets of each set's p50 and tail, so one slow set does not
// set the run's tail, and that its setup_s is the fastest set's submit.
func TestServeControlPerSet(t *testing.T) {
	// set has median base and tail tail: 29 polls at base, one at tail
	// and ten beyond it.
	set := func(base, tail float64) []float64 {
		xs := []float64{tail}
		for i := 0; i < 29; i++ {
			xs = append(xs, base)
		}
		for i := 0; i < tailBeyond; i++ {
			xs = append(xs, 10*tail)
		}
		return xs
	}
	b := newBench(workloads[0], 1, false)
	b.waitSets = [][]float64{set(1, 50), set(2, 70), set(3, 400)}
	b.setups = []float64{0.004, 0.002, 0.0041}
	for _, ws := range b.waitSets {
		b.waits = append(b.waits, ws...)
	}
	if pooled := tailOf(b.waits).Value; pooled != 700 {
		t.Fatalf("pooled tail %v, want 700", pooled)
	}
	v := b.endToEndValues()
	if v["control_p50_ms"] != 2 {
		t.Errorf("control_p50_ms %v, want 2, the median of the set medians", v["control_p50_ms"])
	}
	if v["control_tail_ms"] != 70 {
		t.Errorf("control_tail_ms %v, want 70, the median of the set tails", v["control_tail_ms"])
	}
	if v["setup_s"] != 0.002 {
		t.Errorf("setup_s %v, want 0.002, the fastest set's submit", v["setup_s"])
	}
}
