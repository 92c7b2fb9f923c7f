package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// minimum returns the smallest value of xs, 0 for an empty slice.
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail is the highest percentile of a sample that still has at least
// tailBeyond samples strictly above it.
type tail struct {
	// Value is the sample at that percentile.
	Value float64
	// Pct is the percentile: the share of samples at or below Value,
	// in percent.
	Pct float64
	// N is the sample count.
	N int
	// Supported is false when no sample has tailBeyond samples above
	// it (fewer than tailBeyond+1 samples, or ties at the top); Value
	// is then the sample maximum and Pct 100.
	Supported bool
}

// tailOf computes the tail of xs. With too few samples it reports the
// maximum as an unsupported p100, so a short run still prints a number
// but is marked as not having a percentile tail.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n > tailBeyond {
		// s[n-tailBeyond] is the tenth-largest sample; every sample
		// strictly below it has at least tailBeyond samples above.
		top := s[n-tailBeyond]
		for i := n - tailBeyond - 1; i >= 0; i-- {
			if s[i] < top {
				return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), N: n, Supported: true}
			}
		}
	}
	return tail{Value: s[n-1], Pct: 100, N: n}
}

// String renders the tail with its percentile and sample count.
func (t tail) String() string {
	if !t.Supported {
		return fmt.Sprintf("max of n=%d (no percentile with %d beyond)", t.N, tailBeyond)
	}
	return fmt.Sprintf("p%.2f of n=%d", t.Pct, t.N)
}

// Failure kinds counted by the ledger.
const (
	failError    = "error"           // a call returned an error
	failHTTP     = "http_status"     // a served request got a non-2xx reply
	failVerify   = "restore_verify"  // a restore failed digest verification
	failMismatch = "output_mismatch" // an output differs from its pin or reference
)

// ledger counts attempted and failed operations by failure kind; its
// failed/attempted ratio is the run's failed_frac.
type ledger struct {
	attempted int
	failed    int
	kinds     map[string]int
	notes     []string
}

// fail records one failed operation of the given kind.
func (l *ledger) fail(kind, detail string) {
	if l.kinds == nil {
		l.kinds = map[string]int{}
	}
	l.failed++
	l.kinds[kind]++
	if len(l.notes) < 20 {
		l.notes = append(l.notes, kind+": "+detail)
	}
}

// op records one attempted operation and, when err is non-nil, its
// failure as kind. It reports whether the operation succeeded.
func (l *ledger) op(kind string, err error) bool {
	l.attempted++
	if err != nil {
		l.fail(kind, err.Error())
		return false
	}
	return true
}

// check records one attempted output comparison; a false ok is a
// mismatch failure.
func (l *ledger) check(ok bool, detail string) bool {
	l.attempted++
	if !ok {
		l.fail(failMismatch, detail)
	}
	return ok
}

// frac is failed divided by attempted (0 before any attempt).
func (l *ledger) frac() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// merge adds another ledger's counts.
func (l *ledger) merge(o ledger) {
	l.attempted += o.attempted
	for _, n := range o.notes {
		if len(l.notes) < 20 {
			l.notes = append(l.notes, n)
		}
	}
	for k, n := range o.kinds {
		if l.kinds == nil {
			l.kinds = map[string]int{}
		}
		l.kinds[k] += n
		l.failed += n
	}
}
