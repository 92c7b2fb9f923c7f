package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/exp"
)

// TestSmoke runs layout 0 of every workload once at the default seed:
// every operation must succeed and every output match its pin.
func TestSmoke(t *testing.T) {
	exp.RegisterSessions()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := newBench(w, defaultSeed, false)
			b.quiet = true
			w.rep(b, 0)
			if b.led.failed != 0 || b.led.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", b.led.failed, b.led.attempted, b.led.notes)
			}
			b.reps = w.layouts
			for _, d := range endToEnd {
				if v := b.endToEndValues()[d.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}
		})
	}
}

// TestRestoreFailureKinds sends real checkpoints through the batch
// restore path: an intact one restores, one whose section digest was
// altered fails digest verification, and a truncated one fails to
// decode.
func TestRestoreFailureKinds(t *testing.T) {
	exp.RegisterSessions()
	spec := mustJSON(exp.CitySpec{APs: 4, Seed: 3, SettleMS: 500, MeasureMS: 500})
	s, err := checkpoint.Build("densecity", spec, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(500 * time.Millisecond)
	cp, err := checkpoint.Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	var intact, altered bytes.Buffer
	if err := cp.Encode(&intact); err != nil {
		t.Fatal(err)
	}
	d := []byte(cp.Sections[0].Digest)
	if d[0] == '0' {
		d[0] = '1'
	} else {
		d[0] = '0'
	}
	cp.Sections[0].Digest = string(d)
	if err := cp.Encode(&altered); err != nil {
		t.Fatal(err)
	}

	w, err := findWorkload("city")
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(w, defaultSeed, false)
	b.restore(intact.Bytes(), 0, "intact")
	if b.led.failed != 0 || len(b.restores) != 1 {
		t.Fatalf("intact checkpoint: %d failures %v, %d restores", b.led.failed, b.led.notes, len(b.restores))
	}
	b.restore(altered.Bytes(), 0, "altered")
	b.restore(intact.Bytes()[:intact.Len()/2], 0, "truncated")
	if b.led.kinds[failVerify] != 1 || b.led.kinds[failError] != 1 || b.led.failed != 2 {
		t.Errorf("failure kinds %v, want one %s and one %s: %v", b.led.kinds, failVerify, failError, b.led.notes)
	}
}

// TestTracedSmoke makes one traced rep of the storm and checks that the
// per-layer metrics come from all three sources.
func TestTracedSmoke(t *testing.T) {
	exp.RegisterSessions()
	w, err := findWorkload("storm")
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(w, defaultSeed, true)
	b.quiet = true
	b.profiledPass(0)
	w.rep(b, 0)
	b.reps = w.layouts
	if b.led.failed != 0 {
		t.Fatalf("failures: %v", b.led.notes)
	}
	v := b.perLayerValues()
	for _, name := range []string{"exp.advance_s", "checkpoint.restore_s", "sim.events", "radio.scans", "fault.injections", "obs.snapshot_bytes", "bench.trace_overhead", "bench.cpu_samples", "sim.worker_util", "runtime.alloc_mb"} {
		if !(v[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, v[name])
		}
	}
	// The storm advances on one thread, so its worker capacity is the
	// profiled pass's advance time, and the telemetry pass adds none.
	if got, want := v["sim.worker_capacity_s"], v["bench.profiled_s"]; math.Abs(got-want) > 1e-9 {
		t.Errorf("sim.worker_capacity_s = %v, want bench.profiled_s = %v", got, want)
	}
	if len(v) != len(perLayer) {
		t.Errorf("%d values for %d per-layer metrics", len(v), len(perLayer))
	}
	dir := t.TempDir()
	if err := b.writeTrace(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "storm-seed1.spans.jsonl")); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metrics and workloads
// the command reports, and the per-package CPU rows to internal/.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the command %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)

	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for _, e := range entries {
		if e.IsDir() {
			pkgs = append(pkgs, e.Name())
		}
	}
	sort.Strings(pkgs)
	if len(pkgs) != len(layerPkgs) {
		t.Fatalf("internal/ has %v, layerPkgs %v", pkgs, layerPkgs)
	}
	for i := range pkgs {
		if pkgs[i] != layerPkgs[i] {
			t.Errorf("internal/ has %v, layerPkgs %v", pkgs, layerPkgs)
			break
		}
	}
}
