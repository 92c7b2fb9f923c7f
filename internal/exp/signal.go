package exp

import (
	"fmt"
	"math/rand"
	"time"

	"whitefi/internal/iq"
	"whitefi/internal/mac"
	"whitefi/internal/phy"
	"whitefi/internal/radio"
	"whitefi/internal/sift"
	"whitefi/internal/spectrum"
	"whitefi/internal/trace"
)

// Table1Loss is the front-end attenuation used in the SIFT accuracy
// experiments, placing received signals at realistic indoor levels
// (around -66 dBm) where the low-amplitude leading ramp of 5 MHz
// packets falls below the SIFT threshold — the effect responsible for
// the slightly lower 5 MHz detection rates in Table 1.
const Table1Loss = 82.0

// table1Rates are the traffic intensities of Table 1 in bits/second.
var table1Rates = []float64{125e3, 250e3, 500e3, 750e3, 1e6}

// table1Packets is the number of 1000-byte packets sent per run.
const table1Packets = 110

// detectTolLow/High is the packet-length matching tolerance of the
// Table 1 detection criterion.
const (
	detectTolLow  = 0.10
	detectTolHigh = 0.10
)

// siftRun transmits packets of the given size at the given rate and
// width and returns (detected, sent, siftAirtime, truthAirtime).
func siftRun(seed int64, w spectrum.Width, rateBps float64, packets, size int, lossDB float64) (int, int, float64, float64) {
	wd := newWorld(seed)
	ch := spectrum.Chan(10, w)
	ap := mac.NewNode(wd.eng, wd.air, idForegroundAP, ch, true)
	mac.NewNode(wd.eng, wd.air, idForegroundClient, ch, false)
	interval := time.Duration(float64(size*8) / rateBps * float64(time.Second))
	cbr := mac.NewCBR(wd.eng, ap, idForegroundClient, size, interval)
	cbr.Start()
	end := interval*time.Duration(packets) + 50*time.Millisecond
	wd.eng.RunUntil(end)
	cbr.Stop()

	sc := radio.NewScanner(wd.air, idScanner, rand.New(rand.NewSource(seed*31+7)))
	sc.ExtraLossDB = lossDB
	res := sc.ScanChannel(10, 0, end)
	detected := sift.CountMatching(res.Pulses, w, size+phy.MACHeaderBytes, detectTolLow, detectTolHigh)
	if detected > cbr.Sent {
		detected = cbr.Sent
	}
	truth := wd.air.BusyFractionAt(mac.IdealObserver, 10, 0, end, nil)
	return detected, cbr.Sent, res.Airtime, truth
}

// Table1 reproduces Table 1: SIFT's packet detection rate (median over
// runs) across channel widths and traffic intensities. Every
// (width, rate, run) cell is an independent simulation, fanned out over
// the worker pool.
func Table1(runs int) *trace.Table {
	t := &trace.Table{
		Title:   "Table 1: SIFT packet detection rate (median of runs)",
		Headers: []string{"width", "0.125M", "0.25M", "0.5M", "0.75M", "1M"},
	}
	nr := len(table1Rates)
	fracs := make([]float64, len(spectrum.Widths)*nr*runs)
	runIndexed(len(fracs), func(i int) {
		w := spectrum.Widths[i/(nr*runs)]
		rate := table1Rates[i/runs%nr]
		r := i % runs
		det, sent, _, _ := siftRun(int64(r)*97+int64(w), w, rate, table1Packets, 1000, Table1Loss)
		fracs[i] = float64(det) / float64(sent)
	})
	for wi, w := range spectrum.Widths {
		row := []string{w.String()}
		for ri := range table1Rates {
			cell := fracs[(wi*nr+ri)*runs : (wi*nr+ri)*runs+runs]
			row = append(row, fmt.Sprintf("%.2f", trace.Median(cell)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig6 reproduces Figure 6: airtime utilization measured by SIFT for
// the same sweep. The airtime at a given width is constant across
// traffic intensity (same number of packets on air) and doubles when
// the width halves.
func Fig6(runs int) *trace.Table {
	t := &trace.Table{
		Title:   "Figure 6: SIFT airtime utilization estimate (fraction of a fixed 10s window)",
		Headers: []string{"width", "0.125M", "0.25M", "0.5M", "0.75M", "1M"},
	}
	// Fixed observation window so airtime values are comparable across
	// rates: the run sending 110 packets always fits in 10s at >=125k.
	const window = 10 * time.Second
	nr := len(table1Rates)
	vals := make([]float64, len(spectrum.Widths)*nr*runs)
	runIndexed(len(vals), func(i int) {
		w := spectrum.Widths[i/(nr*runs)]
		rate := table1Rates[i/runs%nr]
		r := i % runs
		wd := newWorld(int64(r)*193 + int64(w))
		ch := spectrum.Chan(10, w)
		ap := mac.NewNode(wd.eng, wd.air, idForegroundAP, ch, true)
		mac.NewNode(wd.eng, wd.air, idForegroundClient, ch, false)
		interval := time.Duration(float64(1000*8) / rate * float64(time.Second))
		cbr := mac.NewCBR(wd.eng, ap, idForegroundClient, 1000, interval)
		cbr.Start()
		wd.eng.RunUntil(interval * table1Packets)
		cbr.Stop()
		wd.eng.RunUntil(window)
		sc := radio.NewScanner(wd.air, idScanner, rand.New(rand.NewSource(int64(r)*7+3)))
		sc.ExtraLossDB = Table1Loss
		res := sc.ScanChannel(10, 0, window)
		vals[i] = res.Airtime
	})
	for wi, w := range spectrum.Widths {
		row := []string{w.String()}
		for ri := range table1Rates {
			cell := vals[(wi*nr+ri)*runs : (wi*nr+ri)*runs+runs]
			row = append(row, fmt.Sprintf("%.3f", trace.Mean(cell)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig7Point is one attenuation sweep sample.
type Fig7Point struct {
	AttenDB     float64
	SIFTRate    float64 // fraction of packets SIFT detects
	SnifferRate float64 // fraction the hardware decoder captures
}

// Fig7 reproduces Figure 7: packet detection vs attenuation for SIFT
// and the packet sniffer. SIFT detects corrupted packets the decoder
// loses, staying ahead of the sniffer until its fixed amplitude
// threshold cuts off sharply; the sniffer rolls off smoothly and only
// wins beyond the cliff, at capture ratios too low to be useful.
func Fig7(runs int) []Fig7Point {
	var attens []float64
	for atten := 80.0; atten <= 104; atten += 2 {
		attens = append(attens, atten)
	}
	type cell struct{ sift, snif float64 }
	cells := make([]cell, len(attens)*runs)
	runIndexed(len(cells), func(i int) {
		atten := attens[i/runs]
		r := i % runs
		seed := int64(atten*13) + int64(r)*1009
		det, sent, _, _ := siftRun(seed, spectrum.W10, 1e6, table1Packets, 1000, atten)
		// Sniffer: per-packet capture at the SNR the attenuator
		// leaves. TX power 16 dBm minus attenuation.
		rng := rand.New(rand.NewSource(seed * 3))
		snr := radio.SNRAt(mac.DefaultTxPowerDBm - atten)
		caught := 0
		for k := 0; k < sent; k++ {
			if radio.SnifferCaptures(rng, snr) {
				caught++
			}
		}
		cells[i] = cell{float64(det) / float64(sent), float64(caught) / float64(sent)}
	})
	var out []Fig7Point
	for ai, atten := range attens {
		var siftFr, snifFr []float64
		for r := 0; r < runs; r++ {
			c := cells[ai*runs+r]
			siftFr = append(siftFr, c.sift)
			snifFr = append(snifFr, c.snif)
		}
		out = append(out, Fig7Point{AttenDB: atten,
			SIFTRate: trace.Mean(siftFr), SnifferRate: trace.Mean(snifFr)})
	}
	return out
}

// Fig7Table renders the sweep.
func Fig7Table(runs int) *trace.Table {
	t := &trace.Table{
		Title:   "Figure 7: packet detection vs attenuation",
		Headers: []string{"atten(dB)", "SIFT", "sniffer"},
	}
	for _, p := range Fig7(runs) {
		t.AddFloats(fmt.Sprintf("%.0f", p.AttenDB), 2, p.SIFTRate, p.SnifferRate)
	}
	return t
}

// Fig5Trace renders the time-domain amplitude view of one data-ACK
// exchange at the given width (Figure 5), returning the samples and the
// detected pulses.
func Fig5Trace(w spectrum.Width, seed int64) ([]float64, []sift.Pulse) {
	wd := newWorld(seed)
	ch := spectrum.Chan(10, w)
	ap := mac.NewNode(wd.eng, wd.air, idForegroundAP, ch, true)
	mac.NewNode(wd.eng, wd.air, idForegroundClient, ch, false)
	ap.Send(phy.DataFrame(idForegroundAP, idForegroundClient, 132-phy.MACHeaderBytes))
	wd.eng.RunUntil(20 * time.Millisecond)
	r := iq.NewRenderer(wd.air, idScanner, rand.New(rand.NewSource(seed)))
	r.ExtraLossDB = 70 // bring amplitudes into the figure's range
	s := r.Render(10, 0, 5*time.Millisecond)
	return s, sift.DetectPulses(s, sift.Config{})
}

// Fig5 summarises the three traces: the data and ACK pulse durations
// per width (each roughly doubling as the width halves).
func Fig5() *trace.Table {
	t := &trace.Table{
		Title:   "Figure 5: time-domain view of a 132-byte data-ACK exchange",
		Headers: []string{"width", "data(us)", "gap(us)", "ack(us)"},
	}
	for i := len(spectrum.Widths) - 1; i >= 0; i-- {
		w := spectrum.Widths[i]
		_, pulses := Fig5Trace(w, int64(w))
		if len(pulses) < 2 {
			t.AddRow(w.String(), "n/a", "n/a", "n/a")
			continue
		}
		t.AddRow(w.String(),
			fmt.Sprintf("%.0f", float64(pulses[0].Duration())/1000),
			fmt.Sprintf("%.0f", float64(pulses[1].Start-pulses[0].End)/1000),
			fmt.Sprintf("%.0f", float64(pulses[1].Duration())/1000),
		)
	}
	return t
}
