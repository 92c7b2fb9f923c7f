package checkpoint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Section summarizes one digested component of a session's state: a
// stable name, an item count (events pending, transmissions logged,
// flows tracked — whatever the component counts), and the FNV-1a
// digest of its canonical state rendition.
type Section struct {
	// Name identifies the component ("engine", "air", "flows", ...).
	Name string `json:"section"`
	// Items is the component's element count at capture time.
	Items int `json:"items"`
	// Digest is the 16-hex-digit FNV-1a 64 digest of the component's
	// canonical DigestState stream.
	Digest string `json:"digest"`
}

// Session is a running simulation that can be checkpointed: it exposes
// its identity (Kind + Config, together a complete replay recipe), its
// clock, and its digestible state. Sessions are single-goroutine
// objects like the engine they wrap; callers serialize access.
type Session interface {
	// Kind is the registered scenario kind this session was built from.
	Kind() string
	// Config returns the JSON-serializable config the session was
	// built with. Building a fresh session from this value and
	// advancing it to the same virtual time reproduces this session's
	// state bit-for-bit — the property Restore verifies.
	Config() interface{}
	// Now is the session's current virtual time.
	Now() time.Duration
	// End is the virtual time at which the scenario completes.
	End() time.Duration
	// AdvanceTo runs the simulation up to virtual time t (no-op if t
	// is not ahead of Now). Advancing in any number of steps yields
	// the same state as advancing in one — all scenario work is
	// engine-scheduled, none runs between calls.
	AdvanceTo(t time.Duration)
	// Sections digests the session's live state, one Section per
	// component, in a stable order.
	Sections() []Section
	// Result summarizes the run so far as a JSON-serializable value;
	// complete once Now() >= End().
	Result() interface{}
}

// Edit is one what-if modification applied to a forked session at its
// checkpoint time (see Fork). The Op vocabulary is defined by each
// session kind; unknown ops are rejected by Apply.
type Edit struct {
	// Op names the modification ("add-aps", ...).
	Op string `json:"op"`
	// N is the op's count argument (e.g. how many APs to add).
	N int `json:"n,omitempty"`
	// Seed drives any randomness the edit needs (placement draws), so
	// a fork is as deterministic as the run it branched from.
	Seed int64 `json:"seed,omitempty"`
}

// Editable is implemented by sessions that support fork-time what-if
// edits.
type Editable interface {
	// Apply performs the edit at the session's current virtual time.
	Apply(Edit) error
}

// Options carries the out-of-band (non-replayed) wiring a builder
// needs: where to send live output. Nothing in Options may influence
// the simulation's event schedule — that is the config's job — so two
// sessions built from the same config with different Options still
// replay identically.
type Options struct {
	// SnapshotOut receives the session's observer snapshot JSONL
	// stream, one line per telemetry period, when the session's config
	// enables telemetry. Nil discards the stream.
	SnapshotOut io.Writer
}

// Builder constructs a fresh session of one kind from its config JSON.
// The returned session is at virtual time zero.
type Builder func(cfg json.RawMessage, opt Options) (Session, error)

var (
	regMu    sync.RWMutex
	builders = map[string]Builder{}
)

// Register installs the builder for a session kind. Registering a kind
// twice panics: kinds are package-level wiring, not runtime data.
func Register(kind string, b Builder) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := builders[kind]; dup {
		panic(fmt.Sprintf("checkpoint: duplicate kind %q", kind))
	}
	builders[kind] = b
}

// Kinds lists the registered session kinds, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(builders))
	for k := range builders {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Build constructs a fresh session of the given kind at virtual time
// zero. It fails on unknown kinds and invalid configs.
func Build(kind string, cfg json.RawMessage, opt Options) (Session, error) {
	regMu.RLock()
	b, ok := builders[kind]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("checkpoint: unknown session kind %q (registered: %v)", kind, Kinds())
	}
	return b(cfg, opt)
}
