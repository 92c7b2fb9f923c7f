package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"whitefi/internal/sim"
	"whitefi/internal/trace"
)

// TestSnapshotSchema pins the hand-rolled encoder against the shared
// trace.SnapshotRecord schema: every emitted metric must decode back
// with its value intact.
func TestSnapshotSchema(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("b.count")
	c.Add(7)
	r.CounterFunc("a.pull", func() int64 { return 42 })
	r.GaugeFunc("g.depth", func() float64 { return 3.5 })
	h := r.Hist("h.delay")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}

	b := r.AppendSnapshot(nil, 1500)
	var rec trace.SnapshotRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatalf("snapshot does not decode: %v\n%s", err, b)
	}
	if rec.Event != "snapshot" || rec.TMs != 1500 {
		t.Fatalf("bad envelope: %+v", rec)
	}
	if rec.Counters["b.count"] != 7 || rec.Counters["a.pull"] != 42 {
		t.Fatalf("bad counters: %v", rec.Counters)
	}
	if rec.Gauges["g.depth"] != 3.5 {
		t.Fatalf("bad gauges: %v", rec.Gauges)
	}
	hs, ok := rec.Hists["h.delay"]
	if !ok || hs.Count != 100 || hs.Min != 1 || hs.Max != 100 {
		t.Fatalf("bad hist: %+v", hs)
	}
	if hs.P50 < 30 || hs.P50 > 70 || hs.P95 < 85 || hs.Mean != 50.5 {
		t.Fatalf("implausible hist stats: %+v", hs)
	}

	// Names must serialize in sorted order so snapshots are
	// byte-deterministic regardless of registration order.
	if ia, ib := bytes.Index(b, []byte(`"a.pull"`)), bytes.Index(b, []byte(`"b.count"`)); ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("counters not in sorted order:\n%s", b)
	}

	if v, ok := r.CounterValue("b.count"); !ok || v != 7 {
		t.Fatalf("CounterValue = %d, %v", v, ok)
	}
	if _, ok := r.CounterValue("missing"); ok {
		t.Fatal("CounterValue found a missing counter")
	}
}

// TestRegistryDuplicatePanics pins the duplicate-name panic for all
// three metric kinds.
func TestRegistryDuplicatePanics(t *testing.T) {
	for _, reg := range []func(*Registry){
		func(r *Registry) { r.Counter("dup") },
		func(r *Registry) { r.CounterFunc("dup", func() int64 { return 0 }) },
		func(r *Registry) { r.GaugeFunc("dup", func() float64 { return 0 }) },
		func(r *Registry) { r.Hist("dup") },
	} {
		r := NewRegistry()
		reg(r)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("duplicate registration did not panic")
				}
			}()
			reg(r)
		}()
	}
}

// TestTracerRing pins ring behavior: order, wrap-around overwrite, the
// dropped counter, and the JSON dump schema.
func TestTracerRing(t *testing.T) {
	eng := sim.New(1)
	tr := NewTracer(eng, 4)
	id := tr.ID("ev")
	if tr.ID("ev") != id {
		t.Fatal("ID does not dedup")
	}
	for i := 0; i < 6; i++ {
		eng.Schedule(time.Duration(i)*time.Millisecond, func() {})
		eng.Step()
		tr.Event(id, int64(i))
	}
	if tr.Len() != 4 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 4, 2", tr.Len(), tr.Dropped())
	}
	var args []int64
	tr.Each(func(s Span) { args = append(args, s.Arg) })
	want := []int64{2, 3, 4, 5}
	for i, a := range args {
		if a != want[i] {
			t.Fatalf("ring order %v, want %v", args, want)
		}
	}

	b := tr.AppendJSON(nil, 5)
	var dump struct {
		Event   string `json:"event"`
		Dropped int    `json:"dropped"`
		Spans   []struct {
			Name    string  `json:"name"`
			StartMs float64 `json:"start_ms"`
			EndMs   float64 `json:"end_ms"`
			Arg     int64   `json:"arg"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("trace dump does not decode: %v\n%s", err, b)
	}
	if dump.Event != "trace" || dump.Dropped != 2 || len(dump.Spans) != 4 {
		t.Fatalf("bad dump: %+v", dump)
	}
	if dump.Spans[0].Name != "ev" || dump.Spans[0].StartMs != 2 || dump.Spans[3].Arg != 5 {
		t.Fatalf("bad spans: %+v", dump.Spans)
	}
}

// TestRecordingDoesNotAllocate is the hot-path contract: counter
// increments, histogram observations, span recording, and steady-state
// snapshot encoding must all be allocation-free.
func TestRecordingDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Hist("h")
	r.GaugeFunc("g", func() float64 { return 1 })
	eng := sim.New(1)
	tr := NewTracer(eng, 64)
	id := tr.ID("ev")

	if n := testing.AllocsPerRun(100, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(3.7) }); n != 0 {
		t.Errorf("Hist.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Event(id, 9) }); n != 0 {
		t.Errorf("Tracer.Event allocates %v/op", n)
	}

	// Warm the buffers once, then emission must reuse them.
	buf := r.AppendSnapshot(nil, 0)
	tbuf := tr.AppendJSON(nil, 0)
	if n := testing.AllocsPerRun(100, func() { buf = r.AppendSnapshot(buf[:0], 1) }); n != 0 {
		t.Errorf("AppendSnapshot allocates %v/op steady-state", n)
	}
	if n := testing.AllocsPerRun(100, func() { tbuf = tr.AppendJSON(tbuf[:0], 1) }); n != 0 {
		t.Errorf("Tracer.AppendJSON allocates %v/op steady-state", n)
	}
}

// buildObserved runs a tiny deterministic simulation under an Observer
// and returns its JSONL output.
func buildObserved(t *testing.T, wall bool) []byte {
	t.Helper()
	eng := sim.New(7)
	var out bytes.Buffer
	o := &Observer{Period: 100 * time.Millisecond, Out: &out}
	o.Attach(eng)
	c := o.Reg.Counter("work.done")
	o.Reg.GaugeFunc("queue", func() float64 { return float64(eng.Pending()) })
	if wall {
		o.Wall = NewWallTimers()
		o.Wall.Phase("run").Time(func() {})
	}
	id := o.Tracer().ID("work")
	tick := eng.Every(10*time.Millisecond, func() {
		c.Inc()
		o.Tracer().Event(id, c.Value())
	})
	o.Start()
	eng.RunUntil(time.Second)
	tick.Stop()
	o.Stop()
	o.Flush()
	if err := o.Err(); err != nil {
		t.Fatalf("observer write error: %v", err)
	}
	return out.Bytes()
}

// TestObserverEmission drives an Observer off sim.Engine.Every and
// checks the JSONL stream: snapshot cadence, decodability, and
// byte-determinism across two identical runs.
func TestObserverEmission(t *testing.T) {
	out := buildObserved(t, false)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	// 10 periodic snapshots over 1 s at 100 ms, plus the final Flush.
	if len(lines) != 11 {
		t.Fatalf("got %d snapshot lines, want 11", len(lines))
	}
	var rec trace.SnapshotRecord
	if err := json.Unmarshal(lines[10], &rec); err != nil {
		t.Fatalf("line does not decode: %v", err)
	}
	if rec.TMs != 1000 || rec.Counters["work.done"] != 100 {
		t.Fatalf("bad final snapshot: %+v", rec)
	}
	if again := buildObserved(t, false); !bytes.Equal(out, again) {
		t.Fatal("identical runs emitted different snapshot bytes")
	}
}

// TestWallRecord checks that wall timers emit the separate
// snapshot_wall record and that it decodes into trace.WallRecord.
func TestWallRecord(t *testing.T) {
	out := buildObserved(t, true)
	var saw bool
	for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
		var rec trace.WallRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line does not decode: %v\n%s", err, line)
		}
		if rec.Event != "snapshot_wall" {
			continue
		}
		saw = true
		if p, ok := rec.Wall["run"]; !ok || p.Calls != 1 {
			t.Fatalf("bad wall record: %+v", rec)
		}
	}
	if !saw {
		t.Fatal("no snapshot_wall record emitted")
	}
}

// TestServeSetsTimeouts: the telemetry server bounds how long a client
// may take over its request headers and how long an idle keep-alive
// connection stays open.
func TestServeSetsTimeouts(t *testing.T) {
	o := &Observer{}
	srv, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	if srv.srv.ReadHeaderTimeout <= 0 || srv.srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: want both positive",
			srv.srv.ReadHeaderTimeout, srv.srv.IdleTimeout)
	}
}

// TestServe exercises the live HTTP endpoints: 503 before the first
// snapshot, then valid JSON from /metrics and /trace.
func TestServe(t *testing.T) {
	eng := sim.New(1)
	o := &Observer{}
	o.Attach(eng)
	o.Reg.Counter("c").Add(3)
	srv, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-snapshot status %d, want 503", resp.StatusCode)
	}

	o.Flush()
	for _, path := range []string{"/metrics", "/trace"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		if !json.Valid(body) {
			t.Fatalf("%s is not valid JSON: %s", path, body)
		}
	}
}
