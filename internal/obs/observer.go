package obs

import (
	"io"
	"sync"
	"time"

	"whitefi/internal/sim"
)

// DefaultPeriod is the snapshot period an Observer uses when none is
// set.
const DefaultPeriod = time.Second

// Observer ties a Registry and a Tracer to a sim.Engine: every Period
// of simulation time it serializes the registry to one snapshot JSON
// line, writes it to Out (when set), and publishes a copy for the
// HTTP endpoints (Serve). Snapshot bytes are a pure function of
// simulation state; the optional WallTimers serialize as a separate
// "snapshot_wall" record following each snapshot line, never into the
// snapshot record itself, so filtering out "snapshot_wall" lines
// recovers the fully deterministic stream.
type Observer struct {
	// Reg is the metrics registry serialized on every snapshot.
	Reg *Registry
	// Wall, when non-nil, appends a "snapshot_wall" record after each
	// snapshot. Leave nil in determinism comparisons.
	Wall *WallTimers
	// Period is the simulation-time snapshot interval (DefaultPeriod
	// when zero).
	Period time.Duration
	// Out, when non-nil, receives one JSON line per snapshot (and per
	// wall record when Wall is set).
	Out io.Writer

	eng    *sim.Engine
	tracer *Tracer
	ticker *sim.Ticker
	buf    []byte // reused snapshot encode buffer
	wbuf   []byte // reused wall-record encode buffer

	mu         sync.Mutex
	pubMetrics []byte // last published snapshot (copy, for HTTP)
	pubTrace   []byte // last published trace dump (copy, for HTTP)
	err        error  // first Out write error, sticky
}

// Attach binds the observer to an engine, creating its Tracer. Call
// before Start and before recording any spans.
func (o *Observer) Attach(eng *sim.Engine) {
	o.eng = eng
	o.tracer = NewTracer(eng, DefaultTraceCap)
	if o.Reg == nil {
		o.Reg = NewRegistry()
	}
}

// Tracer returns the span tracer created by Attach (nil before).
func (o *Observer) Tracer() *Tracer { return o.tracer }

// Start begins periodic snapshot emission on the attached engine.
func (o *Observer) Start() {
	period := o.Period
	if period == 0 {
		period = DefaultPeriod
	}
	o.ticker = o.eng.Every(period, o.emit)
}

// Stop halts periodic emission.
func (o *Observer) Stop() {
	if o.ticker != nil {
		o.ticker.Stop()
		o.ticker = nil
	}
}

// Flush emits one snapshot immediately at the current simulation time.
func (o *Observer) Flush() { o.emit() }

// emit serializes the registry (and trace ring) into reused buffers,
// publishes copies for HTTP, and writes the JSONL lines to Out.
func (o *Observer) emit() {
	tMs := float64(o.eng.Now()) / 1e6
	o.buf = o.Reg.AppendSnapshot(o.buf[:0], tMs)
	if o.Wall != nil {
		o.wbuf = o.Wall.AppendRecord(o.wbuf[:0], tMs)
	}

	o.mu.Lock()
	o.pubMetrics = append(o.pubMetrics[:0], o.buf...)
	o.pubMetrics = append(o.pubMetrics, '\n')
	if o.tracer != nil {
		o.pubTrace = o.tracer.AppendJSON(o.pubTrace[:0], tMs)
		o.pubTrace = append(o.pubTrace, '\n')
	}
	o.mu.Unlock()

	if o.Out != nil && o.err == nil {
		o.buf = append(o.buf, '\n')
		if _, err := o.Out.Write(o.buf); err != nil {
			o.err = err
			return
		}
		if o.Wall != nil {
			o.wbuf = append(o.wbuf, '\n')
			if _, err := o.Out.Write(o.wbuf); err != nil {
				o.err = err
			}
		}
	}
}

// Err returns the first write error encountered emitting to Out.
func (o *Observer) Err() error { return o.err }

// MetricsJSON returns a copy of the most recently published snapshot
// line (nil before the first snapshot). Safe to call from any
// goroutine.
func (o *Observer) MetricsJSON() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pubMetrics == nil {
		return nil
	}
	out := make([]byte, len(o.pubMetrics))
	copy(out, o.pubMetrics)
	return out
}

// TraceJSON returns a copy of the most recently published trace dump
// (nil before the first snapshot). Safe to call from any goroutine.
func (o *Observer) TraceJSON() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pubTrace == nil {
		return nil
	}
	out := make([]byte, len(o.pubTrace))
	copy(out, o.pubTrace)
	return out
}
