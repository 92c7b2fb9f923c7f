package fault

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
)

// refInjectorDigest is the fmt rendering that Injector.DigestState
// replaced, kept verbatim as the reference its bytes must equal; its
// event lines are refEventLine.
func refInjectorDigest(in *Injector, w io.Writer) {
	fmt.Fprintf(w, "inj seed=%d rate=%v running=%t gen=%d targets=%d events=%d\n",
		in.Cfg.Seed, in.Cfg.Rate, in.running, in.gen, len(in.targets), len(in.Events))
	for _, e := range in.Events {
		fmt.Fprintf(w, "%s\n", refEventLine(e))
	}
	for _, t := range in.targets {
		fmt.Fprintf(w, "target id=%d down=%t\n", t.id, t.down)
	}
}

// refGEDigest is the fmt rendering that GilbertElliott.DigestState
// replaced; the loss probabilities are the good state's 0 and
// geLossBad.
func refGEDigest(g *GilbertElliott, w io.Writer) {
	fmt.Fprintf(w, "ge lossgood=%v lossbad=%v bad=%t running=%t detached=%t drops=%d deliveries=%d\n",
		0.0, geLossBad, g.bad, g.running, g.detached, g.Drops, g.Deliveries)
}

// refEventLine is the fmt rendering that Event.Line replaced.
func refEventLine(e Event) string {
	return fmt.Sprintf("t=%.3f kind=%s target=%d dur=%.3f",
		e.At.Seconds(), e.Kind, e.Target, e.Dur.Seconds())
}

func digestInt(r *rand.Rand) int64 {
	edge := []int64{0, -1, 1, 499999, 500000, 1500000, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	if r.Intn(2) == 0 {
		return edge[r.Intn(len(edge))]
	}
	return int64(r.Uint64()) >> r.Intn(64)
}

func digestFloat(r *rand.Rand) float64 {
	edge := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e21, 0.25, 1e-5}
	if r.Intn(2) == 0 {
		return edge[r.Intn(len(edge))]
	}
	return math.Float64frombits(r.Uint64())
}

// digestText renders write through a checkpoint.Digest.
func digestText(write func(*checkpoint.Digest)) []byte {
	var b bytes.Buffer
	d := checkpoint.NewDigest(&b)
	write(d)
	d.Flush()
	return b.Bytes()
}

// TestFaultDigestsMatchFmt: injectors and loss overlays whose digested
// fields hold random and edge values render exactly the former fmt
// bytes, fault event lines included.
func TestFaultDigestsMatchFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	kinds := []string{"crash", "restart", "stall", "overload", "", "ü"}
	for i := 0; i < 1000; i++ {
		in := &Injector{Cfg: Config{Seed: digestInt(r), Rate: digestFloat(r)}, running: r.Intn(2) == 0, gen: int(digestInt(r))}
		for k := r.Intn(5); k > 0; k-- {
			in.Events = append(in.Events, Event{At: time.Duration(digestInt(r)), Kind: kinds[r.Intn(len(kinds))],
				Target: int(digestInt(r)), Dur: time.Duration(digestInt(r))})
		}
		for k := r.Intn(4); k > 0; k-- {
			in.targets = append(in.targets, &entry{id: int(digestInt(r)), down: r.Intn(2) == 0})
		}
		var want bytes.Buffer
		refInjectorDigest(in, &want)
		if got := digestText(in.DigestState); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("injector %d:\n got %q\nwant %q", i, got, want.Bytes())
		}
		g := &GilbertElliott{Drops: int(digestInt(r)),
			Deliveries: int(digestInt(r)), bad: r.Intn(2) == 0, running: r.Intn(2) == 0, detached: r.Intn(2) == 0}
		want.Reset()
		refGEDigest(g, &want)
		if got := digestText(g.DigestState); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("loss overlay %d:\n got %q\nwant %q", i, got, want.Bytes())
		}
	}
}
