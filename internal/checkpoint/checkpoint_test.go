package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeSpec configures the test-only "fake" session kind: a counter
// that ticks once per millisecond through a tiny LCG, so state at any
// instant is a pure function of (spec, time).
type fakeSpec struct {
	Ticks int   `json:"ticks"`
	Seed  int64 `json:"seed"`
}

// fakeSession deterministically accumulates LCG draws, one per
// elapsed millisecond.
type fakeSession struct {
	spec  fakeSpec
	now   time.Duration
	state uint64
	draws int
}

func (s *fakeSession) Kind() string        { return "fake" }
func (s *fakeSession) Config() interface{} { return s.spec }
func (s *fakeSession) Now() time.Duration  { return s.now }
func (s *fakeSession) End() time.Duration  { return time.Duration(s.spec.Ticks) * time.Millisecond }
func (s *fakeSession) AdvanceTo(t time.Duration) {
	if t > s.End() {
		t = s.End()
	}
	for s.now < t {
		s.now += time.Millisecond
		if s.now > t {
			s.now = t
			break
		}
		s.state = s.state*6364136223846793005 + 1442695040888963407
		s.draws++
	}
	if s.now < t {
		s.now = t
	}
}
func (s *fakeSession) Sections() []Section {
	return []Section{
		HashSection("counter", s.draws, func(d *Digest) {
			d.Row("counter").Uint("state", s.state).Int("draws", int64(s.draws)).Int("now", int64(s.now)).End()
		}),
	}
}
func (s *fakeSession) Result() interface{} {
	return map[string]interface{}{"state": s.state, "draws": s.draws}
}

var fakeOnce sync.Once

func registerFake() {
	fakeOnce.Do(func() {
		Register("fake", func(raw json.RawMessage, _ Options) (Session, error) {
			var sp fakeSpec
			if err := json.Unmarshal(raw, &sp); err != nil {
				return nil, err
			}
			if sp.Ticks < 1 {
				return nil, fmt.Errorf("ticks must be positive")
			}
			st := &fakeSession{spec: sp, state: uint64(sp.Seed)}
			return st, nil
		})
	})
}

// encodeFake builds a fake session, advances it to at, and returns
// the encoded checkpoint bytes.
func encodeFake(t *testing.T, at time.Duration) []byte {
	t.Helper()
	registerFake()
	raw, _ := json.Marshal(fakeSpec{Ticks: 50, Seed: 99})
	s, err := Build("fake", raw, Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s.AdvanceTo(at)
	cp, err := Capture(s)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTrip pins encode→decode→restore→advance for the fake kind.
func TestRoundTrip(t *testing.T) {
	enc := encodeFake(t, 20*time.Millisecond)
	cp, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if cp.Kind != "fake" || cp.At != 20*time.Millisecond || cp.Version != FormatVersion {
		t.Fatalf("decoded header wrong: %+v", cp)
	}
	s, err := Restore(cp, Options{})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	s.AdvanceTo(s.End())

	ref, _ := Build("fake", cp.Config, Options{})
	ref.AdvanceTo(ref.End())
	if err := VerifySections(ref.Sections(), s.Sections()); err != nil {
		t.Fatalf("restored end state diverged: %v", err)
	}
}

// TestDecodeCorruption feeds the decoder a table of mangled
// checkpoints; every one must fail with ErrCorrupt and never panic.
func TestDecodeCorruption(t *testing.T) {
	valid := encodeFake(t, 10*time.Millisecond)
	lines := bytes.SplitAfter(valid, []byte("\n"))

	cases := map[string][]byte{
		"empty":              {},
		"not json":           []byte("garbage\n"),
		"html":               []byte("<html><body>503</body></html>\n"),
		"missing magic":      []byte(`{"kind":"fake","at_ns":1,"sections":0,"config_digest":"x"}` + "\n"),
		"future version":     bytes.Replace(valid, []byte(`{"whitefi_checkpoint":1`), []byte(`{"whitefi_checkpoint":2`), 1),
		"empty kind":         bytes.Replace(valid, []byte(`"kind":"fake"`), []byte(`"kind":""`), 1),
		"negative at":        bytes.Replace(valid, []byte(`"at_ns":10000000`), []byte(`"at_ns":-5`), 1),
		"huge sections":      bytes.Replace(valid, []byte(`"sections":1`), []byte(`"sections":99999`), 1),
		"section count lies": bytes.Replace(valid, []byte(`"sections":1`), []byte(`"sections":2`), 1),
		"config digest":      bytes.Replace(valid, []byte(`"config":{`), []byte(`"config": {`), 1),
		"bad digest chars":   bytes.Replace(valid, []byte(`"digest":"`), []byte(`"digest":"ZZ`), 1),
		"trailing data":      append(append([]byte{}, valid...), []byte("{\"extra\":true}\n")...),
		"body flip":          bytes.Replace(valid, []byte(`"section":"counter"`), []byte(`"section":"czunter"`), 1),
	}
	// Every truncation point short of the full document: after each
	// line, and mid-line. (SplitAfter leaves a final empty element.)
	for i := 1; i < len(lines)-1; i++ {
		cases[fmt.Sprintf("truncated after line %d", i)] = bytes.Join(lines[:i], nil)
	}
	cases["truncated mid line"] = valid[:len(valid)/2]

	for name, data := range cases {
		data := data
		t.Run(name, func(t *testing.T) {
			cp, err := Decode(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("decode accepted corrupt input, returned %+v", cp)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
		})
	}
}

// TestRestoreRejections pins the restore error surface that decode
// alone cannot catch: tampered (but well-formed) section digests,
// unknown kinds, out-of-range capture times, version skew.
func TestRestoreRejections(t *testing.T) {
	registerFake()
	enc := encodeFake(t, 10*time.Millisecond)

	t.Run("tampered digest", func(t *testing.T) {
		cp, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		cp.Sections[0].Digest = strings.Repeat("0", 16)
		if _, err := Restore(cp, Options{}); err == nil {
			t.Fatal("restore accepted a tampered section digest")
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		cp, _ := Decode(bytes.NewReader(enc))
		cp.Kind = "no-such-kind"
		if _, err := Restore(cp, Options{}); err == nil {
			t.Fatal("restore accepted an unknown kind")
		}
	})
	t.Run("capture time past end", func(t *testing.T) {
		cp, _ := Decode(bytes.NewReader(enc))
		cp.At = time.Hour
		if _, err := Restore(cp, Options{}); err == nil {
			t.Fatal("restore accepted an out-of-range capture time")
		}
	})
	t.Run("version skew", func(t *testing.T) {
		cp, _ := Decode(bytes.NewReader(enc))
		cp.Version = FormatVersion + 1
		if _, err := Restore(cp, Options{}); err == nil {
			t.Fatal("restore accepted a foreign format version")
		}
	})
	t.Run("bad config", func(t *testing.T) {
		cp, _ := Decode(bytes.NewReader(enc))
		cp.Config = json.RawMessage(`{"ticks":-1}`)
		if _, err := Restore(cp, Options{}); err == nil {
			t.Fatal("restore accepted a config the builder rejects")
		}
	})
}

// TestRegistry pins duplicate-registration panics and kind listing.
func TestRegistry(t *testing.T) {
	registerFake()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	found := false
	for _, k := range Kinds() {
		if k == "fake" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered kind missing from Kinds()")
	}
	Register("fake", nil)
}

// FuzzCheckpointRoundTrip feeds arbitrary bytes to Decode: any input
// must either decode cleanly (and then re-encode to a decodable
// document with identical content) or fail with an error — never
// panic, never hang.
func FuzzCheckpointRoundTrip(f *testing.F) {
	registerFake()
	raw, _ := json.Marshal(fakeSpec{Ticks: 50, Seed: 99})
	s, _ := Build("fake", raw, Options{})
	s.AdvanceTo(20 * time.Millisecond)
	cp, _ := Capture(s)
	var buf bytes.Buffer
	_ = cp.Encode(&buf)
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("{\"whitefi_checkpoint\":1}\n"))
	f.Add(valid[:len(valid)/3])
	f.Add(bytes.Replace(valid, []byte("fake"), []byte("f\x00ke"), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		var re bytes.Buffer
		if err := cp.Encode(&re); err != nil {
			t.Fatalf("re-encode of decoded checkpoint failed: %v", err)
		}
		cp2, err := Decode(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if cp2.Kind != cp.Kind || cp2.At != cp.At || len(cp2.Sections) != len(cp.Sections) {
			t.Fatalf("round trip drifted: %+v vs %+v", cp, cp2)
		}
	})
}
