package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/mac"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

// refBSSDigest, refLossDigest and refOutagesDigest are the fmt
// renderings of the bss, loss and outages sections that digestBSS,
// digestLoss and digestOutages replaced, kept verbatim as the
// references their bytes must equal.
func refBSSDigest(r *cityRun, w io.Writer) {
	for i, b := range r.bss {
		cur, has := b.sel.Current()
		fmt.Fprintf(w, "bss %d ch=%s sw=%d cur=%s/%t rx=%v\n", i, b.ap.Channel(), b.switches, cur, has, b.lastRx)
	}
}

func refLossDigest(c *stormCell, w io.Writer) {
	if c.ge == nil {
		fmt.Fprintln(w, "ge nil")
		return
	}
	d := checkpoint.NewDigest(w) // GilbertElliott's own test holds it to its fmt rendering
	c.ge.DigestState(d)
	d.Flush()
}

func refOutagesDigest(c *stormCell, w io.Writer) {
	for _, l := range c.lines {
		fmt.Fprintln(w, l)
	}
}

// refSection digests the text ref writes, as HashSection did with it.
func refSection(ref func(io.Writer)) string {
	h := fnv.New64a()
	ref(h)
	return fmt.Sprintf("%016x", h.Sum64())
}

// sectionDigest returns the digest of the named section.
func sectionDigest(t *testing.T, secs []checkpoint.Section, name string) string {
	t.Helper()
	for _, s := range secs {
		if s.Name == name {
			return s.Digest
		}
	}
	t.Fatalf("no %q section", name)
	return ""
}

// TestBSSDigestMatchesFmt: BSS rows whose channels, selector state,
// switch counts and goodput baselines hold random and edge values
// render exactly the former fmt bytes.
func TestBSSDigestMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edge := []int64{0, -1, 1, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	num := func() int64 {
		if rng.Intn(2) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return int64(rng.Uint64()) >> rng.Intn(64)
	}
	channel := func() spectrum.Channel {
		return spectrum.Channel{Center: spectrum.UHF(rng.Intn(40) - 5), Width: spectrum.Width(num())}
	}
	widths := []spectrum.Width{spectrum.W5, spectrum.W10, spectrum.W20}
	for i := 0; i < 300; i++ {
		eng := sim.New(1)
		air := mac.NewAir(eng)
		r := &cityRun{}
		for k := rng.Intn(4); k > 0; k-- {
			ch := spectrum.Chan(spectrum.UHF(rng.Intn(spectrum.NumUHF)), widths[rng.Intn(len(widths))])
			b := &denseBSS{ap: mac.NewNode(eng, air, k, ch, true), switches: int(num())}
			if rng.Intn(2) == 0 {
				b.sel.ForceChannel(channel())
			}
			for j := rng.Intn(4); j > 0; j-- {
				b.lastRx = append(b.lastRx, num())
			}
			r.bss = append(r.bss, b)
		}
		var want, got bytes.Buffer
		refBSSDigest(r, &want)
		d := checkpoint.NewDigest(&got)
		r.digestBSS(d)
		d.Flush()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("city %d:\n got %q\nwant %q", i, got.Bytes(), want.Bytes())
		}
	}
}

// TestSessionSectionsMatchFmt: on live sessions, the bss, loss and
// outages section digests equal the digests of the former fmt text —
// a city mid-run, and storm cells with and without the loss overlay
// once outages have been logged.
func TestSessionSectionsMatchFmt(t *testing.T) {
	RegisterSessions()
	raw, _ := json.Marshal(CitySpec{APs: 6, Seed: 5, SettleMS: 1000, MeasureMS: 3000})
	s, err := checkpoint.Build("densecity", raw, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(2500 * time.Millisecond)
	r := s.(*citySession).run
	if got, want := sectionDigest(t, s.Sections(), "bss"), refSection(func(w io.Writer) { refBSSDigest(r, w) }); got != want {
		t.Fatalf("bss section %s, fmt text digests to %s", got, want)
	}
	for _, rate := range []float64{0, 2} {
		raw, _ := json.Marshal(StormSpec{Seed: 3, Rate: rate})
		s, err := checkpoint.Build("faultstorm", raw, checkpoint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.AdvanceTo(s.End())
		c := s.(*stormSession).run.cell
		if rate > 0 && len(c.lines) == 0 {
			t.Fatalf("rate %v: no outage logged", rate)
		}
		secs := s.Sections()
		if got, want := sectionDigest(t, secs, "loss"), refSection(func(w io.Writer) { refLossDigest(c, w) }); got != want {
			t.Fatalf("rate %v: loss section %s, fmt text digests to %s", rate, got, want)
		}
		if got, want := sectionDigest(t, secs, "outages"), refSection(func(w io.Writer) { refOutagesDigest(c, w) }); got != want {
			t.Fatalf("rate %v: outages section %s, fmt text digests to %s", rate, got, want)
		}
	}
}
