package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/traffic"
)

// pinHash is the first 16 hex digits of the SHA-256 of b.
func pinHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// sectionsHash hashes a session's section digests, one line per
// section.
func sectionsHash(s checkpoint.Session) string {
	var sb bytes.Buffer
	for _, sec := range s.Sections() {
		fmt.Fprintf(&sb, "%s items=%d %s\n", sec.Name, sec.Items, sec.Digest)
	}
	return pinHash(sb.Bytes())
}

// pinCase is one session of the pin golden: a kind and spec, and
// optionally the edits of a fork taken at the session's midpoint.
type pinCase struct {
	name  string
	kind  string
	spec  interface{}
	edits []checkpoint.Edit
}

// pinCases covers both city kinds with telemetry off and on, a
// densecity fork, and a telemetry-on storm cell.
var pinCases = []pinCase{
	{name: "densecity", kind: "densecity",
		spec: CitySpec{APs: 6, Seed: 5, SettleMS: 1000, MeasureMS: 3000}},
	{name: "densecity+add-aps", kind: "densecity",
		spec:  CitySpec{APs: 6, Seed: 5, SettleMS: 1000, MeasureMS: 3000},
		edits: []checkpoint.Edit{{Op: "add-aps", N: 3, Seed: 77}}},
	{name: "tiledcity", kind: "tiledcity",
		spec: CitySpec{APs: 8, Tiles: 4, Shards: 2, Seed: 4242, SettleMS: 1000, MeasureMS: 3000, Mobility: true}},
	{name: "densecity/telemetry", kind: "densecity",
		spec: CitySpec{APs: 5, Seed: 7, SettleMS: 1000, MeasureMS: 3000, QueueLimit: 64, TelemetryMS: 500}},
	{name: "tiledcity/telemetry", kind: "tiledcity",
		spec: CitySpec{APs: 6, Tiles: 3, Shards: 2, Seed: 11, SettleMS: 1000, MeasureMS: 3000, Mobility: true, TelemetryMS: 500}},
	{name: "faultstorm", kind: "faultstorm",
		spec: StormSpec{Seed: 8191, Rate: 2, RunMS: 20000, QuiesceMS: 12000, TelemetryMS: 2000}},
}

// pinSession runs one pin case and returns its pinned lines: the
// section digests at the midpoint (after the fork's edits, for a fork)
// and at the end, the Result JSON, and the snapshot stream.
func pinSession(c pinCase) ([]string, error) {
	raw, err := json.Marshal(c.spec)
	if err != nil {
		return nil, err
	}
	var stream bytes.Buffer
	s, err := checkpoint.Build(c.kind, raw, checkpoint.Options{SnapshotOut: &stream})
	if err != nil {
		return nil, err
	}
	s.AdvanceTo(s.End() / 2)
	if c.edits != nil {
		cp, err := checkpoint.Capture(s)
		if err != nil {
			return nil, err
		}
		stream.Reset()
		if s, err = checkpoint.Fork(cp, c.edits, checkpoint.Options{SnapshotOut: &stream}); err != nil {
			return nil, err
		}
	}
	mid := sectionsHash(s)
	s.AdvanceTo(s.End())
	end := sectionsHash(s)
	res, err := json.Marshal(s.Result())
	if err != nil {
		return nil, err
	}
	return []string{
		c.name + " sections@mid " + mid,
		c.name + " sections@end " + end,
		c.name + " result " + pinHash(res),
		c.name + " snapshots " + pinHash(stream.Bytes()),
	}, nil
}

// TestGoldenPins pins the absolute output of the city and storm
// builders: session section digests, results and snapshot streams for
// each city kind and the storm, a densecity fork, a DenseCityRun with
// mixed traffic, uplink flows and a queue limit, and ShardedStorm's
// equivalence artifact. TestShardEquivalence only compares layouts with
// each other; these hashes hold the bytes themselves still.
//
// Regenerate deliberately with:
//
//	go test ./internal/exp -run GoldenPins -update
func TestGoldenPins(t *testing.T) {
	RegisterSessions()
	lines := make([][]string, len(pinCases)+2)
	errs := make([]error, len(lines))
	runIndexed(len(lines), func(i int) {
		switch {
		case i < len(pinCases):
			lines[i], errs[i] = pinSession(pinCases[i])
		case i == len(pinCases):
			r := DenseCityRun(DenseCityConfig{
				APs: 8, Seed: 3, Settle: time.Second, Measure: 3 * time.Second,
				Traffic: traffic.Models(), UplinkFrac: 0.3, QueueLimit: 64,
			})
			r.WallClock = 0
			b, _ := json.Marshal(r)
			lines[i] = []string{"densecityrun/mixed result " + pinHash(b)}
		default:
			lines[i] = []string{"shardedstorm artifact " + pinHash([]byte(stormArtifact(t, 2, 2)))}
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", pinCases[i].name, err)
		}
	}
	var sb strings.Builder
	for _, l := range lines {
		for _, s := range l {
			sb.WriteString(s)
			sb.WriteByte('\n')
		}
	}
	got := sb.String()

	path := filepath.Join("testdata", "golden_pins.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("pin golden has %d lines, run produced %d:\n%s", len(wantLines), len(gotLines), got)
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("pin moved:\n  want %s\n  got  %s", wantLines[i], gotLines[i])
		}
	}
}
