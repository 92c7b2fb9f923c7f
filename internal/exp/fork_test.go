package exp

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
)

// TestForkDivergence pins the fork contract: a fork with no edits
// replays the control run byte-identically; a fork with an edit agrees
// with the control up to the edit's sim-time (Restore proves the
// prefix by digest) and diverges after it — deterministically, so two
// identical forks agree with each other.
func TestForkDivergence(t *testing.T) {
	RegisterSessions()
	spec := CitySpec{APs: 5, Seed: 9, MeasureMS: 4000}
	raw, _ := json.Marshal(spec)
	const at = 3 * time.Second

	control, err := checkpoint.Build("densecity", raw, checkpoint.Options{})
	if err != nil {
		t.Fatalf("build control: %v", err)
	}
	control.AdvanceTo(control.End())
	controlArt := sessionArtifact(t, control)

	// A second run checkpointed mid-flight.
	s, err := checkpoint.Build("densecity", raw, checkpoint.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s.AdvanceTo(at)
	cp, err := checkpoint.Capture(s)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	var enc bytes.Buffer
	if err := cp.Encode(&enc); err != nil {
		t.Fatalf("encode: %v", err)
	}

	// Unedited fork = verified restore; must reproduce the control.
	cp1, err := checkpoint.Decode(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	plain, err := checkpoint.Fork(cp1, nil, checkpoint.Options{})
	if err != nil {
		t.Fatalf("plain fork: %v", err)
	}
	plain.AdvanceTo(plain.End())
	if art := sessionArtifact(t, plain); art != controlArt {
		t.Fatalf("unedited fork diverged from control:\n%s", firstDiff(controlArt, art))
	}

	// Edited fork: identical prefix (Restore verified the digests at
	// the capture time before the edit applied), divergent suffix.
	edits := []checkpoint.Edit{{Op: "add-aps", N: 2, Seed: 77}}
	forkSession := func() checkpoint.Session {
		cpN, err := checkpoint.Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		f, err := checkpoint.Fork(cpN, edits, checkpoint.Options{})
		if err != nil {
			t.Fatalf("fork: %v", err)
		}
		return f
	}
	forkA := forkSession()
	if got := forkA.Now(); got != at {
		t.Fatalf("fork clock %v, want the capture time %v", got, at)
	}
	// The edit changes state at the capture instant itself.
	if err := checkpoint.VerifySections(cp.Sections, forkA.Sections()); err == nil {
		t.Fatal("edited fork still matches the checkpoint digests — the edit was a no-op")
	}
	forkA.AdvanceTo(forkA.End())
	forkArt := sessionArtifact(t, forkA)
	if forkArt == controlArt {
		t.Fatal("edited fork ended identical to the control — the edit changed nothing downstream")
	}

	// Forks are as deterministic as the runs they branch from.
	forkB := forkSession()
	forkB.AdvanceTo(forkB.End())
	if art := sessionArtifact(t, forkB); art != forkArt {
		t.Fatalf("two identical forks diverged from each other:\n%s", firstDiff(forkArt, art))
	}
}

// TestForkSummaryCountsAddedBSSs pins the forked summary: BSSs added
// by add-aps count in APs and Nodes, and the per-BSS means divide by
// every BSS they sum, so MCham quality stays a fraction.
func TestForkSummaryCountsAddedBSSs(t *testing.T) {
	RegisterSessions()
	raw, _ := json.Marshal(CitySpec{APs: 8, Seed: 3, SettleMS: 1000, MeasureMS: 3000})
	s, err := checkpoint.Build("densecity", raw, checkpoint.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s.AdvanceTo(2 * time.Second)
	cp, err := checkpoint.Capture(s)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	f, err := checkpoint.Fork(cp, []checkpoint.Edit{{Op: "add-aps", N: 24, Seed: 1}}, checkpoint.Options{})
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	f.AdvanceTo(f.End())
	res := f.Result().(CityResult).Result
	if res.APs != 32 || res.Nodes != 96 {
		t.Errorf("forked counts APs=%d Nodes=%d, want 32 and 96", res.APs, res.Nodes)
	}
	if res.MChamQuality < 0 || res.MChamQuality > 1 {
		t.Errorf("forked MCham quality %.3f outside [0, 1]", res.MChamQuality)
	}
}

// TestForkRejections pins the fork error surface: unknown ops, edits
// on tiledcity, and kinds that do not implement Editable.
func TestForkRejections(t *testing.T) {
	RegisterSessions()

	raw, _ := json.Marshal(CitySpec{APs: 2, Seed: 1, SettleMS: 300, MeasureMS: 400})
	s, err := checkpoint.Build("densecity", raw, checkpoint.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s.AdvanceTo(500 * time.Millisecond)
	cp, err := checkpoint.Capture(s)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if _, err := checkpoint.Fork(cp, []checkpoint.Edit{{Op: "no-such-op"}}, checkpoint.Options{}); err == nil {
		t.Fatal("unknown edit op accepted")
	}

	traw, _ := json.Marshal(CitySpec{APs: 2, Tiles: 2, Seed: 1, SettleMS: 300, MeasureMS: 400})
	tiled, err := checkpoint.Build("tiledcity", traw, checkpoint.Options{})
	if err != nil {
		t.Fatalf("build tiled: %v", err)
	}
	tiled.AdvanceTo(500 * time.Millisecond)
	tcp, err := checkpoint.Capture(tiled)
	if err != nil {
		t.Fatalf("capture tiled: %v", err)
	}
	if _, err := checkpoint.Fork(tcp, []checkpoint.Edit{{Op: "add-aps", N: 1}}, checkpoint.Options{}); err == nil {
		t.Fatal("add-aps accepted by tiledcity")
	}

	mraw, _ := json.Marshal(MixedSpec{Clients: 2, Seed: 1, SettleMS: 300, MeasureMS: 400})
	m, err := checkpoint.Build("mixedtraffic", mraw, checkpoint.Options{})
	if err != nil {
		t.Fatalf("build mixed: %v", err)
	}
	m.AdvanceTo(500 * time.Millisecond)
	mcp, err := checkpoint.Capture(m)
	if err != nil {
		t.Fatalf("capture mixed: %v", err)
	}
	if _, err := checkpoint.Fork(mcp, []checkpoint.Edit{{Op: "add-aps", N: 1}}, checkpoint.Options{}); err == nil {
		t.Fatal("edit accepted by a kind that does not implement Editable")
	}
}

// FuzzCheckpointAt probes checkpoint/restore at arbitrary capture
// instants — mid-transmission, mid-outage, mid-fault, between DCF
// slots — and requires the restored run to reproduce the control's end
// state exactly. The seed corpus pins the boundaries the storm
// scenario makes interesting (quiesce instant, first fault window,
// run end minus a hair).
func FuzzCheckpointAt(f *testing.F) {
	f.Add(int64(1))             // virtually time zero
	f.Add(int64(2_500_000_000)) // mid-settle traffic
	f.Add(int64(4_999_999_999)) // 1 ns before quiesce
	f.Add(int64(5_000_000_000)) // the quiesce instant itself
	f.Add(int64(5_000_000_001)) // 1 ns after
	f.Add(int64(7_999_999_999)) // run end minus 1 ns
	f.Add(int64(3_141_592_653)) // arbitrary mid-storm instant
	f.Fuzz(func(t *testing.T, atNS int64) {
		RegisterSessions()
		spec := StormSpec{Seed: 5, Rate: 2, RunMS: 8000, QuiesceMS: 5000}
		raw, _ := json.Marshal(spec)
		ctrl, err := checkpoint.Build("faultstorm", raw, checkpoint.Options{})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		at := time.Duration(atNS)
		if at <= 0 || at >= ctrl.End() {
			t.Skip("capture time outside the run")
		}
		ctrl.AdvanceTo(at)
		cp, err := checkpoint.Capture(ctrl)
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		var enc bytes.Buffer
		if err := cp.Encode(&enc); err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec, err := checkpoint.Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		restored, err := checkpoint.Restore(dec, checkpoint.Options{})
		if err != nil {
			t.Fatalf("restore at %v: %v", at, err)
		}
		ctrl.AdvanceTo(ctrl.End())
		restored.AdvanceTo(restored.End())
		if a, b := sessionArtifact(t, ctrl), sessionArtifact(t, restored); a != b {
			t.Fatalf("restore at %v diverged:\n%s", at, firstDiff(a, b))
		}
	})
}

// TestForkTelemetryCountsAddedBSSs: the snapshot stream of a forked,
// telemetry-on city sums the BSSs that add-aps placed, like its
// result does. The last snapshot, flushed once every flow has
// stopped, must count every packet every flow generated and every
// data frame every node sent.
func TestForkTelemetryCountsAddedBSSs(t *testing.T) {
	RegisterSessions()
	raw, _ := json.Marshal(CitySpec{APs: 4, Seed: 3, SettleMS: 1000, MeasureMS: 3000, TelemetryMS: 500})
	s, err := checkpoint.Build("densecity", raw, checkpoint.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s.AdvanceTo(2 * time.Second)
	cp, err := checkpoint.Capture(s)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	var stream bytes.Buffer
	f, err := checkpoint.Fork(cp, []checkpoint.Edit{{Op: "add-aps", N: 4, Seed: 1}}, checkpoint.Options{SnapshotOut: &stream})
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	f.AdvanceTo(f.End())
	f.Result()
	var generated, txData int64
	for _, b := range f.(*citySession).run.bss {
		for _, fl := range b.flows {
			generated += int64(fl.Tel.Generated)
		}
		txData += int64(b.ap.Stats.TxData)
		for _, cl := range b.clients {
			txData += int64(cl.Stats.TxData)
		}
	}
	var last struct {
		Counters map[string]int64 `json:"counters"`
	}
	for _, line := range bytes.Split(bytes.TrimSpace(stream.Bytes()), []byte("\n")) {
		if bytes.Contains(line, []byte(`"event":"snapshot"`)) {
			if err := json.Unmarshal(line, &last); err != nil {
				t.Fatalf("snapshot line %q: %v", line, err)
			}
		}
	}
	if got := last.Counters["traffic.generated"]; got != generated || generated == 0 {
		t.Errorf("last snapshot traffic.generated = %d, flows generated %d", got, generated)
	}
	if got := last.Counters["mac.tx_data"]; got != txData {
		t.Errorf("last snapshot mac.tx_data = %d, nodes sent %d", got, txData)
	}
}
