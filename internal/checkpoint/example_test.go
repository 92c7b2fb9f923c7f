package checkpoint_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"whitefi/internal/checkpoint"
)

// tickSpec configures the example session: a counter ticking once per
// millisecond.
type tickSpec struct {
	Ticks int `json:"ticks"`
}

type tickSession struct {
	spec tickSpec
	now  time.Duration
	sum  int
}

func (s *tickSession) Kind() string        { return "example-ticker" }
func (s *tickSession) Config() interface{} { return s.spec }
func (s *tickSession) Now() time.Duration  { return s.now }
func (s *tickSession) End() time.Duration  { return time.Duration(s.spec.Ticks) * time.Millisecond }
func (s *tickSession) AdvanceTo(t time.Duration) {
	if t > s.End() {
		t = s.End()
	}
	for s.now+time.Millisecond <= t {
		s.now += time.Millisecond
		s.sum += int(s.now / time.Millisecond)
	}
	if s.now < t {
		s.now = t
	}
}
func (s *tickSession) Sections() []checkpoint.Section {
	return []checkpoint.Section{
		checkpoint.HashSection("ticker", 1, func(d *checkpoint.Digest) {
			d.Row("ticker").Int("sum", int64(s.sum)).Int("now", int64(s.now)).End()
		}),
	}
}
func (s *tickSession) Result() interface{} { return map[string]int{"sum": s.sum} }

var exampleOnce sync.Once

// Example captures a running session mid-flight, serializes it, and
// restores a second session that replays to the same state — the
// digest verification inside Restore proves the replay matched.
func Example() {
	exampleOnce.Do(func() {
		checkpoint.Register("example-ticker", func(raw json.RawMessage, _ checkpoint.Options) (checkpoint.Session, error) {
			var sp tickSpec
			if err := json.Unmarshal(raw, &sp); err != nil {
				return nil, err
			}
			return &tickSession{spec: sp}, nil
		})
	})

	spec, _ := json.Marshal(tickSpec{Ticks: 20})
	s, _ := checkpoint.Build("example-ticker", spec, checkpoint.Options{})
	s.AdvanceTo(7 * time.Millisecond)

	cp, _ := checkpoint.Capture(s)
	var buf bytes.Buffer
	_ = cp.Encode(&buf)

	decoded, _ := checkpoint.Decode(&buf)
	restored, err := checkpoint.Restore(decoded, checkpoint.Options{})
	if err != nil {
		fmt.Println("restore:", err)
		return
	}
	restored.AdvanceTo(restored.End())
	s.AdvanceTo(s.End())
	fmt.Println("restored:", restored.Result())
	fmt.Println("original:", s.Result())
	// Output:
	// restored: map[sum:210]
	// original: map[sum:210]
}
