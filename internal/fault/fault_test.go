package fault

import (
	"math"
	"testing"
	"time"

	"whitefi/internal/mac"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
)

type countingTarget struct {
	crashes, restarts int
	stalled           time.Duration
	bursts            int
	oddBursts         int // bursts that did not offer 256 frames of 1000 B
}

func (t *countingTarget) Crash()                       { t.crashes++ }
func (t *countingTarget) Restart()                     { t.restarts++ }
func (t *countingTarget) StallScanner(d time.Duration) { t.stalled += d }
func (t *countingTarget) InjectLoad(n, bytes int) int {
	t.bursts++
	if n != 256 || bytes != 1000 {
		t.oddBursts++
	}
	return n
}

// run executes one seeded schedule and returns the rendered event trace.
func run(seed int64, rate float64) (string, *countingTarget) {
	eng := sim.New(99)
	tgt := &countingTarget{}
	inj := NewInjector(eng, Config{Seed: seed, Rate: rate})
	inj.AddTarget(1, tgt)
	inj.Start()
	eng.RunUntil(3 * time.Minute)
	inj.Quiesce()
	out := ""
	for _, e := range inj.Events {
		out += e.Line() + "\n"
	}
	return out, tgt
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	a, ta := run(5, 1)
	b, _ := run(5, 1)
	if a != b {
		t.Fatalf("same seed produced different fault traces:\n%s\n----\n%s", a, b)
	}
	c, _ := run(6, 1)
	if a == c {
		t.Fatal("different seeds produced identical fault traces")
	}
	if ta.crashes == 0 {
		t.Fatal("default schedule injected no crashes in 3 minutes")
	}
	if ta.crashes != ta.restarts {
		t.Fatalf("crashes (%d) not paired with restarts (%d) after Quiesce", ta.crashes, ta.restarts)
	}
}

func TestInjectorRateZeroIsIdle(t *testing.T) {
	_, tgt := run(5, 0)
	if tgt.crashes+tgt.bursts != 0 || tgt.stalled != 0 {
		t.Fatalf("rate 0 still injected faults: %+v", tgt)
	}
}

func TestInjectorRateScales(t *testing.T) {
	_, slow := run(5, 0.5)
	_, fast := run(5, 4)
	if fast.crashes <= slow.crashes {
		t.Fatalf("rate 4 crashed %d times, rate 0.5 %d times; expected more at the higher rate",
			fast.crashes, slow.crashes)
	}
}

// TestInjectorScheduleMeans: over 20 virtual hours each fault process
// draws holding times whose mean is the schedule's divided by Rate —
// DESIGN.md's fault table, written out here as literals — within four
// standard errors, and every burst offers 256 frames of 1000 B.
func TestInjectorScheduleMeans(t *testing.T) {
	for _, rate := range []float64{1, 2} {
		eng := sim.New(99)
		tgt := &countingTarget{}
		inj := NewInjector(eng, Config{Seed: 5, Rate: rate})
		inj.AddTarget(1, tgt)
		inj.Start()
		eng.RunUntil(20 * time.Hour)

		// The next crash is drawn at the restart; stalls and bursts
		// renew at their own start. Every process starts at t=0.
		var crashGap, downtime, stallGap, stallLen, burstGap []time.Duration
		var crashAt, restartAt, stallAt, burstAt time.Duration
		for _, e := range inj.Events {
			switch e.Kind {
			case "crash":
				crashGap = append(crashGap, e.At-restartAt)
				crashAt = e.At
			case "restart":
				downtime = append(downtime, e.At-crashAt)
				restartAt = e.At
			case "stall":
				stallGap = append(stallGap, e.At-stallAt)
				stallLen = append(stallLen, e.Dur)
				stallAt = e.At
			case "overload":
				burstGap = append(burstGap, e.At-burstAt)
				burstAt = e.At
			}
		}
		for _, c := range []struct {
			name    string
			samples []time.Duration
			mean    time.Duration // at Rate 1
		}{
			{"crash interval", crashGap, 30 * time.Second},
			{"crash downtime", downtime, 5 * time.Second},
			{"stall interval", stallGap, 20 * time.Second},
			{"stall length", stallLen, 4 * time.Second},
			{"burst interval", burstGap, 15 * time.Second},
		} {
			if len(c.samples) == 0 {
				t.Fatalf("rate %v: no %s samples", rate, c.name)
			}
			sum := 0.0
			for _, d := range c.samples {
				sum += d.Seconds()
			}
			n := float64(len(c.samples))
			got, want := sum/n, c.mean.Seconds()/rate
			// An exponential holding time's standard deviation is its
			// mean, so the sample mean's standard error is want/√n.
			if se := want / math.Sqrt(n); math.Abs(got-want) > 4*se {
				t.Errorf("rate %v: %s mean %.3f s over %d samples, want %.3f ± %.3f s",
					rate, c.name, got, len(c.samples), want, 4*se)
			}
		}
		if tgt.bursts != len(burstGap) || tgt.oddBursts != 0 {
			t.Errorf("rate %v: %d bursts offered, %d traced, %d not 256 × 1000 B",
				rate, tgt.bursts, len(burstGap), tgt.oddBursts)
		}
	}
}

func TestGilbertElliottDropsBurstily(t *testing.T) {
	eng := sim.New(3)
	air := mac.NewAir(eng)
	ch := spectrum.Chan(3, spectrum.W5)
	src := mac.NewNode(eng, air, 1, ch, true)
	dst := mac.NewNode(eng, air, 2, ch, false)
	_ = dst
	ge := NewGilbertElliott(eng, air, 11)
	ge.Start()
	flow := mac.NewCBR(eng, src, 2, 1000, 5*time.Millisecond)
	flow.Start()
	eng.RunUntil(30 * time.Second)
	ge.Stop()
	if ge.Drops == 0 {
		t.Fatal("no drops in 30 s")
	}
	if ge.Deliveries == 0 {
		t.Fatal("overlay dropped everything")
	}
	if air.DropFilter != nil {
		t.Fatal("Stop did not uninstall the drop filter")
	}
	// The sender retries dropped (unACKed) frames; the receiver must
	// still make progress through the bursts.
	if dst.Stats.RxData == 0 {
		t.Fatal("no data delivered through the overlay")
	}
}
