package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/exp"
	"whitefi/internal/server"
)

// stepKind is a session kind with no simulation in it: a virtual clock
// that moves wherever AdvanceTo sends it, optionally held inside each
// slice by a gate. It lets the tests below stop a run mid-slice and
// run many runs quickly under the race detector.
const stepKind = "server-test-steps"

// stepSpec is stepKind's spec.
type stepSpec struct {
	// EndMS is the run's virtual length in milliseconds.
	EndMS int64 `json:"end_ms"`
	// WorkUS is the host time each AdvanceTo spends, in microseconds.
	WorkUS int64 `json:"work_us,omitempty"`
	// Gate names the gate (in gates) that holds every AdvanceTo.
	Gate string `json:"gate,omitempty"`
}

// gate holds a stepKind session inside its slices: AdvanceTo sends its
// target on entered and then waits for a receive on release. Closing
// open lets every slice through, so a failing test can still stop its
// server.
type gate struct {
	entered chan time.Duration
	release chan struct{}
	open    chan struct{}
}

// gates maps a stepSpec.Gate name to its *gate.
var gates sync.Map

// stepSession is a stepKind session.
type stepSession struct {
	spec stepSpec
	now  time.Duration
	gate *gate
}

func (s *stepSession) Kind() string        { return stepKind }
func (s *stepSession) Config() interface{} { return s.spec }
func (s *stepSession) Now() time.Duration  { return s.now }
func (s *stepSession) End() time.Duration  { return time.Duration(s.spec.EndMS) * time.Millisecond }
func (s *stepSession) Result() interface{} { return map[string]int64{"at_ns": int64(s.now)} }
func (s *stepSession) Sections() []checkpoint.Section {
	return []checkpoint.Section{{Name: "clock", Items: 1, Digest: fmt.Sprintf("%016x", int64(s.now))}}
}

func (s *stepSession) AdvanceTo(t time.Duration) {
	if t <= s.now {
		return
	}
	if g := s.gate; g != nil {
		select {
		case g.entered <- t:
			select {
			case <-g.release:
			case <-g.open:
			}
		case <-g.open:
		}
	}
	time.Sleep(time.Duration(s.spec.WorkUS) * time.Microsecond)
	s.now = t
}

var registerStepKind sync.Once

// registerTestKinds registers the scenario kinds and stepKind.
func registerTestKinds() {
	exp.RegisterSessions()
	registerStepKind.Do(func() {
		checkpoint.Register(stepKind, func(cfg json.RawMessage, _ checkpoint.Options) (checkpoint.Session, error) {
			s := &stepSession{}
			if err := json.Unmarshal(cfg, &s.spec); err != nil {
				return nil, err
			}
			if s.spec.Gate != "" {
				g, ok := gates.Load(s.spec.Gate)
				if !ok {
					return nil, fmt.Errorf("no gate %q", s.spec.Gate)
				}
				s.gate = g.(*gate)
			}
			return s, nil
		})
	})
}

// submit starts a run of kind with spec and returns its id.
func submit(t *testing.T, base, kind, spec string) string {
	t.Helper()
	var sub struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, base+"/api/runs", fmt.Sprintf(`{"kind":%q,"spec":%s}`, kind, spec), &sub); code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d", kind, code)
	}
	return sub.ID
}

// checkpointDoc downloads a run's checkpoint document.
func checkpointDoc(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/api/runs/"+id+"/checkpoint", "application/jsonl", nil)
	if err != nil {
		t.Fatalf("checkpoint %s: %v", id, err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint %s: status %d, %v: %s", id, resp.StatusCode, err, doc)
	}
	return doc
}

// listing mirrors the GET /api/runs reply.
type listing struct {
	Runs []status `json:"runs"`
}

// TestServerStatusDuringSlice holds a run inside its second slice and
// requires the status and list reads to answer at once, reporting the
// first slice's boundary. A status read that waits for the run lock
// times out here.
func TestServerStatusDuringSlice(t *testing.T) {
	registerTestKinds()
	ts := httptest.NewServer(server.New(1).Handler())
	defer ts.Close()
	g := &gate{entered: make(chan time.Duration), release: make(chan struct{}), open: make(chan struct{})}
	gates.Store(t.Name(), g)
	defer gates.Delete(t.Name())
	defer close(g.open)

	const end = 3 * server.Slice
	id := submit(t, ts.URL, stepKind, fmt.Sprintf(`{"end_ms":%d,"gate":%q}`, end.Milliseconds(), t.Name()))
	for _, want := range []time.Duration{server.Slice, 2 * server.Slice} {
		if at := <-g.entered; at != want {
			t.Fatalf("slice advances to %v, want %v", at, want)
		}
		if want == 2*server.Slice {
			break // the second slice now holds the run lock
		}
		g.release <- struct{}{}
	}

	quick := &http.Client{Timeout: 2 * time.Second}
	get := func(path string, out interface{}) {
		t.Helper()
		resp, err := quick.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s during a held slice: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	var st status
	get("/api/runs/"+id, &st)
	if st.State != "running" || st.AtNS != int64(server.Slice) || st.EndNS != int64(end) {
		t.Fatalf("status during the second slice: %s at %d of %d ns, want running at %d of %d", st.State, st.AtNS, st.EndNS, server.Slice, end)
	}
	var list listing
	get("/api/runs", &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != id || list.Runs[0].AtNS != int64(server.Slice) {
		t.Fatalf("listing during the second slice: %+v", list.Runs)
	}

	g.release <- struct{}{}
	if at := <-g.entered; at != end {
		t.Fatalf("last slice advances to %v, want %v", at, end)
	}
	g.release <- struct{}{}
	st = waitState(t, ts.URL, id, func(st status) bool { return st.State == "done" })
	if st.AtNS != int64(end) || string(st.Result) != fmt.Sprintf(`{"at_ns":%d}`, end) {
		t.Fatalf("finished run: at %d, result %s", st.AtNS, st.Result)
	}
}

// TestServerConcurrentPolls polls status and list from several
// goroutines across concurrent runs while one run is paused and
// resumed. Under -race it checks that published statuses are safe to
// read without the run lock; every poller must see each run's clock
// only move forward, on slice boundaries, and a done run's result.
func TestServerConcurrentPolls(t *testing.T) {
	registerTestKinds()
	ts := httptest.NewServer(server.New(2).Handler())
	defer ts.Close()

	const runs, pollers = 4, 4
	const end = 40 * server.Slice
	spec := fmt.Sprintf(`{"end_ms":%d,"work_us":1000}`, end.Milliseconds())
	ids := []string{submit(t, ts.URL, stepKind, spec)}
	// Pause the first run at once and hold it while the others run: its
	// clock must not move.
	var held status
	if code := postJSON(t, ts.URL+"/api/runs/"+ids[0]+"/pause", "", &held); code != http.StatusOK || held.State != "paused" {
		t.Fatalf("pause: status %d, state %q", code, held.State)
	}
	for len(ids) < runs {
		ids = append(ids, submit(t, ts.URL, stepKind, spec))
	}

	var wg sync.WaitGroup
	defer wg.Wait()
	// Resume the held run on every path, so the pollers can finish.
	defer func() {
		if resp, err := http.Post(ts.URL+"/api/runs/"+ids[0]+"/resume", "", nil); err == nil {
			resp.Body.Close()
		}
	}()
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pollUntilDone(ts.URL, ids, end); err != nil {
				t.Error(err)
			}
		}()
	}

	for _, id := range ids[1:] {
		waitState(t, ts.URL, id, func(st status) bool { return st.State == "done" })
	}
	var st status
	getJSON(t, ts.URL+"/api/runs/"+ids[0], &st)
	if st.State != "paused" || st.AtNS != held.AtNS {
		t.Fatalf("held run moved while the others finished: paused at %d, now %s at %d", held.AtNS, st.State, st.AtNS)
	}
}

// pollUntilDone polls every run's status and the listing in turn until
// all runs are done, checking what each read may show.
func pollUntilDone(base string, ids []string, end time.Duration) error {
	last := map[string]int64{}
	deadline := time.Now().Add(60 * time.Second)
	for done := 0; done < len(ids); {
		if time.Now().After(deadline) {
			return fmt.Errorf("runs not done after 60 s")
		}
		done = 0
		for _, id := range ids {
			var st status
			if err := fetch(base+"/api/runs/"+id, &st); err != nil {
				return err
			}
			switch {
			case st.ID != id || st.Kind != stepKind:
				return fmt.Errorf("status of %s names %s/%s", id, st.ID, st.Kind)
			case st.AtNS < last[id]:
				return fmt.Errorf("run %s clock went back from %d to %d", id, last[id], st.AtNS)
			case st.AtNS%int64(server.Slice) != 0:
				return fmt.Errorf("run %s reports %d ns, off a slice boundary", id, st.AtNS)
			case st.State == "done" && (st.AtNS != int64(end) || string(st.Result) != fmt.Sprintf(`{"at_ns":%d}`, end)):
				return fmt.Errorf("done run %s at %d ns with result %s", id, st.AtNS, st.Result)
			case st.State != "done" && st.Result != nil:
				return fmt.Errorf("%s run %s carries a result", st.State, id)
			case st.State == "failed":
				return fmt.Errorf("run %s failed: %s", id, st.Error)
			}
			last[id] = st.AtNS
			if st.State == "done" {
				done++
			}
		}
		var list listing
		if err := fetch(base+"/api/runs", &list); err != nil {
			return err
		}
		if len(list.Runs) != len(ids) {
			return fmt.Errorf("listing has %d runs, want %d", len(list.Runs), len(ids))
		}
		for i, st := range list.Runs {
			if st.ID != ids[i] || st.Result != nil {
				return fmt.Errorf("listing entry %d: %s with %d result bytes, want %s without a result", i, st.ID, len(st.Result), ids[i])
			}
		}
	}
	return nil
}

// fetch GETs url and decodes its JSON reply, for goroutines that may
// not call t.Fatal.
func fetch(url string, out interface{}) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestServerCheckpointFinishedRun checkpoints a finished run twice:
// both documents must equal the end checkpoint of a batch run of the
// same spec, captured before its result as the server captures it. A
// restore of that document must finish with the batch result, and a
// fork of the finished run must complete with a different one.
func TestServerCheckpointFinishedRun(t *testing.T) {
	registerTestKinds()
	ts := httptest.NewServer(server.New(2).Handler())
	defer ts.Close()

	const kind, spec = "densecity", `{"aps":3,"seed":5,"measure_ms":2000}`
	s, err := checkpoint.Build(kind, json.RawMessage(spec), checkpoint.Options{})
	if err != nil {
		t.Fatalf("batch build: %v", err)
	}
	s.AdvanceTo(s.End())
	cp, err := checkpoint.Capture(s)
	if err != nil {
		t.Fatalf("batch capture: %v", err)
	}
	var refDoc bytes.Buffer
	if err := cp.Encode(&refDoc); err != nil {
		t.Fatalf("batch encode: %v", err)
	}
	refResult, err := json.Marshal(s.Result())
	if err != nil {
		t.Fatalf("batch result: %v", err)
	}

	id := submit(t, ts.URL, kind, spec)
	st := waitState(t, ts.URL, id, func(st status) bool { return st.State == "done" })
	if string(st.Result) != string(refResult) {
		t.Fatalf("served result diverged:\n%s\nvs\n%s", st.Result, refResult)
	}
	var doc []byte
	for i := 0; i < 2; i++ {
		if doc = checkpointDoc(t, ts.URL, id); !bytes.Equal(doc, refDoc.Bytes()) {
			t.Fatalf("checkpoint %d of the finished run differs from the batch end checkpoint:\n%s\nvs\n%s", i+1, doc, refDoc.Bytes())
		}
	}

	var sub struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/api/restore", string(doc), &sub); code != http.StatusAccepted {
		t.Fatalf("restore of the end checkpoint: status %d", code)
	}
	stR := waitState(t, ts.URL, sub.ID, func(st status) bool { return st.State == "done" })
	if string(stR.Result) != string(refResult) {
		t.Fatalf("restored end checkpoint's result diverged:\n%s\nvs\n%s", stR.Result, refResult)
	}

	if code := postJSON(t, ts.URL+"/api/runs/"+id+"/fork", `{"edits":[{"op":"add-aps","n":1,"seed":3}]}`, &sub); code != http.StatusAccepted {
		t.Fatalf("fork of a finished run: status %d", code)
	}
	stF := waitState(t, ts.URL, sub.ID, func(st status) bool { return st.State == "done" })
	if string(stF.Result) == string(refResult) {
		t.Fatal("fork of the finished run equals the unedited result — the edit changed nothing")
	}
}

// TestServerListOrder requires GET /api/runs to list runs in
// submission order, r10 after r9, not after r1.
func TestServerListOrder(t *testing.T) {
	registerTestKinds()
	ts := httptest.NewServer(server.New(2).Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 11; i++ {
		ids = append(ids, submit(t, ts.URL, stepKind, `{"end_ms":250}`))
	}
	var list listing
	getJSON(t, ts.URL+"/api/runs", &list)
	got := make([]string, len(list.Runs))
	for i, st := range list.Runs {
		got[i] = st.ID
	}
	if strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("listing order %v, want submission order %v", got, ids)
	}
}
