package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/exp"
	"whitefi/internal/server"
)

// serveCitySpec is the served telemetry-on city. It is smaller than the
// batch city so that five sets fit a run: a set's cost follows its
// city's layout, so the more sets a run averages, the less its figures
// depend on the seed. It is long enough that its second half spans
// several status polls, so the pause lands before the run ends.
func serveCitySpec(seed int64, l int) []byte {
	return mustJSON(exp.CitySpec{APs: 24, Seed: subSeed(seed, l), SettleMS: citySettleMS, MeasureMS: cityMeasureMS, TelemetryMS: telemetryMS})
}

// serveStormSpec is the served storm-shaped run: a rate-1 faultstorm
// cell, shortened to overlap the city.
func serveStormSpec(seed int64, l int) []byte {
	return mustJSON(exp.StormSpec{Seed: subSeed(seed, l), Rate: 1, RunMS: 40000, QuiesceMS: 25000})
}

// pollThink is the status poller's pause between a reply and its next
// request: a client watching progress, not a spin loop that would take
// a core from the two server workers.
const pollThink = 2 * time.Millisecond

// forkEdit is the what-if edit of the served fork.
const forkEdit = `{"edits":[{"op":"add-aps","n":4,"seed":7}]}`

// serveRef is the batch reference a served layout must reproduce.
type serveRef struct {
	city, storm []byte // canonical result JSON
	stream      string // hash of the city's snapshot stream
}

// serveReference runs layout l's two specs as batch sessions, once per
// layout per process, outside any timing.
func (b *bench) serveReference(l int) *serveRef {
	if r, ok := b.refs[l]; ok {
		return r
	}
	var stream bytes.Buffer
	city, secs, err := batchResult("densecity", serveCitySpec(b.seed, l), &stream)
	if !b.led.op(failError, err) {
		return nil
	}
	b.checkPin(pinKey{b.w.name, l, "city"}, shortHash(city), secs)
	storm, secs, err := batchResult("faultstorm", serveStormSpec(b.seed, l), nil)
	if !b.led.op(failError, err) {
		return nil
	}
	b.checkPin(pinKey{b.w.name, l, "storm"}, shortHash(storm), secs)
	r := &serveRef{city: city, storm: storm, stream: shortHash(stream.Bytes())}
	b.refs[l] = r
	return r
}

// batchResult runs a spec to its end in one call and returns its
// canonical result JSON and its end-of-run section digest.
func batchResult(kind string, spec []byte, out io.Writer) ([]byte, string, error) {
	s, err := checkpoint.Build(kind, spec, checkpoint.Options{SnapshotOut: out})
	if err != nil {
		return nil, "", err
	}
	s.AdvanceTo(s.End())
	secs := sectionsHash(s.Sections())
	raw, err := json.Marshal(s.Result())
	if err != nil {
		return nil, "", err
	}
	res, err := canonical(raw)
	return res, secs, err
}

// canonical re-encodes JSON with sorted keys, so a result read back
// from the server compares byte-wise with one marshaled in-process.
func canonical(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v interface{}
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// runStatus is the part of a served run's status the client reads.
type runStatus struct {
	State  string          `json:"state"`
	AtNS   int64           `json:"at_ns"`
	EndNS  int64           `json:"end_ns"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// serveClient issues one rep's requests on one connection.
type serveClient struct {
	b      *bench
	http   *http.Client
	base   string
	parent int
	run    string
}

// newHTTPClient returns a client that holds at most one connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// call makes one request, counted as one operation in the ledger and
// recorded as a span; it returns the reply body and the round-trip
// time.
func (c *serveClient) call(ctx context.Context, name, method, path string, body []byte) ([]byte, time.Duration, bool) {
	t0 := time.Now()
	data, code, err := roundTrip(ctx, c.http, method, c.base+path, body)
	t1 := time.Now()
	c.b.tr.add(0, c.parent, c.run, "server."+name, t0, t1)
	switch {
	case err != nil:
		c.b.led.op(failError, fmt.Errorf("%s %s: %w", method, path, err))
		return nil, 0, false
	case code/100 != 2:
		c.b.led.op(failHTTP, fmt.Errorf("%s %s: %d %s", method, path, code, bytes.TrimSpace(data)))
		return nil, 0, false
	}
	c.b.led.op("", nil)
	return data, t1.Sub(t0), true
}

// roundTrip sends one request and reads the whole reply.
func roundTrip(ctx context.Context, hc *http.Client, method, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// submit starts a run and returns its id.
func (c *serveClient) submit(ctx context.Context, name, path string, body []byte) (string, time.Duration, bool) {
	data, d, ok := c.call(ctx, name, "POST", path, body)
	if !ok {
		return "", 0, false
	}
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		c.b.led.fail(failError, fmt.Sprintf("%s reply: %v", path, err))
		return "", 0, false
	}
	return r.ID, d, true
}

// serveRep drives one served session set over loopback: submit a city
// and a storm, follow the city's snapshot stream on one connection, and
// on the other poll status in a closed loop, pausing the city at its
// midpoint to checkpoint it, fork it with added APs and resume it, then
// polling every unfinished run in turn.
// Once the city, storm and fork are done it restores the checkpoint
// restoresPerSet times, one restored run after another. Every served
// result is checked against the batch reference, which is computed
// before the set's clock starts.
func (b *bench) serveRep(l int) {
	ref := b.serveReference(l)
	if ref == nil {
		return
	}
	runtime.GC()
	run := fmt.Sprintf("serve/%d", l)
	repID, repStart := b.tr.newID(), time.Now()
	defer func() { b.tr.add(repID, 0, run, "rep", repStart, time.Now()) }()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if !b.led.op(failError, err) {
		return
	}
	hs := &http.Server{Handler: server.New(maxProcs()).Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	ctl, str := newHTTPClient(), newHTTPClient()
	var streaming sync.WaitGroup
	defer func() {
		ctl.CloseIdleConnections()
		hs.Close()
		streaming.Wait()
		str.CloseIdleConnections()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			b.led.op(failError, err)
		}
	}()
	base := "http://" + ln.Addr().String()
	c := &serveClient{b: b, http: ctl, base: base, parent: repID, run: run}
	// Warm-up: open the control connection, so the timed submit below
	// does not also pay for the TCP handshake and the server's first
	// connection.
	if _, _, ok := c.call(ctx, "kinds", "GET", "/api/kinds", nil); !ok {
		return
	}

	cpu0 := procCPU()
	waits0 := len(b.waits)
	start := time.Now()
	// setup_s is the city's submit alone: the first request to a fresh
	// server, so no served run competes with its probe build, as one
	// does with the storm's.
	cityID, d, ok1 := c.submit(ctx, "submit", "/api/runs", []byte(`{"kind":"densecity","spec":`+string(serveCitySpec(b.seed, l))+`}`))
	stormID, _, ok2 := c.submit(ctx, "submit", "/api/runs", []byte(`{"kind":"faultstorm","spec":`+string(serveStormSpec(b.seed, l))+`}`))
	if !ok1 || !ok2 {
		return
	}
	b.setups = append(b.setups, d.Seconds())

	streamed := make(chan []byte, 1)
	streaming.Add(1)
	go func() {
		defer streaming.Done()
		streamed <- stream(ctx, str, base+"/api/runs/"+cityID+"/stream")
	}()

	var cp []byte
	var forkID string
	var virtual float64
	final := map[string]runStatus{}
	active := []string{cityID, stormID}
	paused := false
	for len(active) > 0 && ctx.Err() == nil {
		var still []string
		for _, id := range active {
			if !paused && id != cityID {
				// Until the city is paused only the city is polled, so
				// the pause lands within a slice or two of its midpoint
				// and the fork and restore replay the same span each set.
				still = append(still, id)
				continue
			}
			st, ok := c.status(ctx, id)
			if !ok {
				return
			}
			if st.State == "failed" {
				b.led.fail(failError, fmt.Sprintf("%s run %s failed: %s", run, id, st.Error))
				return
			}
			if st.State == "done" {
				if id == cityID && !paused {
					b.led.fail(failError, fmt.Sprintf("%s: city finished before its midpoint pause", run))
					return
				}
				final[id] = st
				virtual += float64(st.EndNS) / 1e9
				continue
			}
			still = append(still, id)
			if id == cityID && !paused && st.State == "running" && st.AtNS >= st.EndNS/2 {
				paused = true
				if cp, forkID = c.midpoint(ctx, cityID); cp == nil {
					return
				}
				still = append(still, forkID)
			}
		}
		active = still
	}
	if err := ctx.Err(); err != nil {
		b.led.fail(failError, fmt.Sprintf("%s: %v", run, err))
		return
	}
	var restored []runStatus
	fastest := time.Duration(math.MaxInt64)
	for k := 0; k < restoresPerSet; k++ {
		st, d, ok := c.restoreServed(ctx, cp)
		if !ok {
			return
		}
		restored = append(restored, st)
		virtual += float64(st.EndNS) / 1e9
		if d < fastest {
			fastest = d
		}
	}
	elapsed := time.Since(start)
	b.restores = append(b.restores, fastest.Seconds())
	b.waitSets = append(b.waitSets, b.waits[waits0:])
	b.served = append(b.served, elapsed.Seconds())
	b.virtual += virtual
	b.host += elapsed.Seconds()
	if b.rusage {
		b.workCPU += (procCPU() - cpu0).Seconds()
		b.workCap += elapsed.Seconds() * float64(maxProcs())
	}
	b.heaps = append(b.heaps, liveHeapMiB())

	stream := <-streamed
	b.led.check(shortHash(stream) == ref.stream, run+": served city snapshot stream differs from the batch stream")
	if b.traced {
		b.foldStream(stream)
	}
	b.checkServed(run, "resumed city", final[cityID], ref.city, true)
	for _, st := range restored {
		b.checkServed(run, "restored city", st, ref.city, true)
	}
	b.checkServed(run, "storm", final[stormID], ref.storm, true)
	b.checkServed(run, "add-aps fork", final[forkID], ref.city, false)
}

// status polls a run once, after the poller's think time, and records
// the round trip as a control wait.
func (c *serveClient) status(ctx context.Context, id string) (runStatus, bool) {
	time.Sleep(pollThink)
	data, d, ok := c.call(ctx, "status", "GET", "/api/runs/"+id, nil)
	if !ok {
		return runStatus{}, false
	}
	c.b.waits = append(c.b.waits, float64(d)/1e6)
	var st runStatus
	if err := json.Unmarshal(data, &st); err != nil {
		c.b.led.fail(failError, fmt.Sprintf("status reply: %v", err))
		return runStatus{}, false
	}
	return st, true
}

// checkpointsPerPause is how many times a paused run is checkpointed:
// the city at its midpoint, and each run restored from that checkpoint.
// A paused run must yield the same document every time, which is
// checked.
const checkpointsPerPause = 5

// checkpoints checkpoints the paused run at path checkpointsPerPause
// times, timing each round trip, and returns the document. The pause's
// checkpoint_ms sample is the fastest round trip: the server does the
// same work each time, so the slower ones measure the shared host.
func (c *serveClient) checkpoints(ctx context.Context, path, what string) []byte {
	var cp []byte
	best := time.Duration(math.MaxInt64)
	for i := 0; i < checkpointsPerPause; i++ {
		doc, d, ok := c.call(ctx, "checkpoint", "POST", path+"/checkpoint", nil)
		if !ok {
			return nil
		}
		if d < best {
			best = d
		}
		if cp != nil && !c.b.led.check(bytes.Equal(doc, cp), c.run+": two checkpoints of the paused "+what+" differ") {
			return nil
		}
		cp = doc
	}
	c.b.checkpoints = append(c.b.checkpoints, float64(best)/1e6)
	return cp
}

// midpoint pauses the city, checkpoints it, forks it with forkEdit and
// resumes it, returning the checkpoint and the fork's id.
func (c *serveClient) midpoint(ctx context.Context, cityID string) ([]byte, string) {
	path := "/api/runs/" + cityID
	if _, _, ok := c.call(ctx, "pause", "POST", path+"/pause", nil); !ok {
		return nil, ""
	}
	cp := c.checkpoints(ctx, path, "city")
	if cp == nil {
		return nil, ""
	}
	c.b.count["checkpoint.bytes"] += float64(len(cp))
	forkID, _, ok := c.submit(ctx, "fork", path+"/fork", []byte(forkEdit))
	if !ok {
		return nil, ""
	}
	if _, _, ok := c.call(ctx, "resume", "POST", path+"/resume", nil); !ok {
		return nil, ""
	}
	return cp, forkID
}

// restoresPerSet is how many times a served set restores the city's
// checkpoint. The restored runs go one after another, each alone on the
// server, so each restore is timed with a worker free, and the set's
// restore_s sample is the faster of them: the same checkpoint is
// restored each time, so the slower one measures the shared host.
const restoresPerSet = 2

// restoreServed restores checkpoint cp and pauses the restored run at
// once, while the server is still restoring it, so the run stands at
// the capture instant once its session is built. It times the restore
// until a status poll reports the session (built, replayed and
// verified), checkpoints the held run, which must give cp again, then
// resumes it and polls until it is done. It returns the final status
// and the restore time, and false on a failure.
func (c *serveClient) restoreServed(ctx context.Context, cp []byte) (runStatus, time.Duration, bool) {
	runtime.GC()
	t0 := time.Now()
	id, _, ok := c.submit(ctx, "restore", "/api/restore", cp)
	if !ok {
		return runStatus{}, 0, false
	}
	path := "/api/runs/" + id
	data, _, ok := c.call(ctx, "pause", "POST", path+"/pause", nil)
	if !ok {
		return runStatus{}, 0, false
	}
	var held runStatus
	if err := json.Unmarshal(data, &held); err != nil || held.EndNS != 0 {
		// The session already existed, so the run may have moved on.
		c.b.led.fail(failError, fmt.Sprintf("%s: restored run %s was not held before its session was built (%v)", c.run, id, err))
		return runStatus{}, 0, false
	}
	var restore time.Duration
	for {
		st, ok := c.status(ctx, id)
		if !ok {
			return runStatus{}, 0, false
		}
		if st.State == "failed" {
			// The run failed in checkpoint.Restore. The checkpoint came
			// from a served run of the same spec, so its replay did not
			// reproduce the captured state.
			c.b.led.fail(failVerify, fmt.Sprintf("%s: restored run %s failed: %s", c.run, id, st.Error))
			return runStatus{}, 0, false
		}
		if st.EndNS != 0 {
			restore = time.Since(t0)
			break
		}
	}
	doc := c.checkpoints(ctx, path, "restored city")
	if doc == nil || !c.b.led.check(bytes.Equal(doc, cp), c.run+": checkpoint of the restored city differs from the original") {
		return runStatus{}, 0, false
	}
	if _, _, ok := c.call(ctx, "resume", "POST", path+"/resume", nil); !ok {
		return runStatus{}, 0, false
	}
	for {
		st, ok := c.status(ctx, id)
		switch {
		case !ok:
			return runStatus{}, 0, false
		case st.State == "failed":
			c.b.led.fail(failError, fmt.Sprintf("%s: restored run %s failed: %s", c.run, id, st.Error))
			return runStatus{}, 0, false
		case st.State == "done":
			return st, restore, true
		}
	}
}

// stream reads a run's snapshot stream until the server closes it.
// It runs on its own goroutine and connection, so it records nothing;
// a broken stream shows as a stream that differs from the reference.
func stream(ctx context.Context, hc *http.Client, url string) []byte {
	data, code, err := roundTrip(ctx, hc, "GET", url, nil)
	if err != nil || code != http.StatusOK {
		return nil
	}
	return data
}

// checkServed compares a served run's result with the batch
// reference: equal when want is true, different otherwise.
func (b *bench) checkServed(run, what string, st runStatus, ref []byte, want bool) {
	got, err := canonical(st.Result)
	if !b.led.op(failError, err) {
		return
	}
	same := bytes.Equal(got, ref)
	if want {
		b.led.check(same, fmt.Sprintf("%s: %s result differs from the batch run", run, what))
	} else {
		b.led.check(!same, fmt.Sprintf("%s: %s result equals the unedited batch run", run, what))
	}
}
