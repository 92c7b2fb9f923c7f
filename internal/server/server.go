package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whitefi/internal/checkpoint"
)

// Slice is the virtual-time granularity of the run loop: sessions
// advance one slice at a time, and every control action (pause,
// checkpoint, fork) lands on a slice boundary. Advancing in slices is
// byte-identical to advancing in one leap (the session contract), so
// the slice size affects control latency only, never results.
const Slice = 250 * time.Millisecond

// maxBodyBytes bounds request bodies (specs, edits, checkpoints).
const maxBodyBytes = 32 << 20

// Server runs checkpoint sessions concurrently over a bounded worker
// pool and serves the control API. Create with New.
type Server struct {
	sem chan struct{}

	mu     sync.Mutex
	runs   map[string]*run
	nextID int

	mux *http.ServeMux
}

// run is one hosted session and its lifecycle state. mu guards the
// session and every field below it: the run loop holds mu for one
// Slice at a time, so pause, resume, checkpoint and fork take it and
// land on slice boundaries. Status reads do not take mu: every change
// to what a status reports is published to pub while mu is held.
type run struct {
	id   string
	kind string
	seq  int // creation number: the listing order

	pub atomic.Pointer[runStatus] // last published status, immutable

	mu     sync.Mutex
	cond   *sync.Cond
	sess   checkpoint.Session // nil until restore/build completes, and again once the run ends
	state  string             // "starting", "running", "paused", "done", "failed"
	errMsg string
	result []byte                 // marshaled session result, set when done
	endCP  *checkpoint.Checkpoint // end checkpoint, captured once when done
	endErr error                  // endCP's capture error

	stream *stream
}

// New creates a server allowing at most workers concurrently advancing
// runs (0 selects 4). Session kinds must already be registered (see
// exp.RegisterSessions).
func New(workers int) *Server {
	if workers <= 0 {
		workers = 4
	}
	s := &Server{
		sem:  make(chan struct{}, workers),
		runs: map[string]*run{},
		mux:  http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /api/kinds", s.handleKinds)
	s.mux.HandleFunc("POST /api/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/runs", s.handleList)
	s.mux.HandleFunc("GET /api/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /api/runs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /api/runs/{id}/pause", s.handlePause)
	s.mux.HandleFunc("POST /api/runs/{id}/resume", s.handleResume)
	s.mux.HandleFunc("POST /api/runs/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /api/runs/{id}/fork", s.handleFork)
	s.mux.HandleFunc("POST /api/restore", s.handleRestore)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// newRun allocates and registers a run in the "starting" state.
func (s *Server) newRun(kind string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	r := &run{
		id:     fmt.Sprintf("r%d", s.nextID),
		kind:   kind,
		seq:    s.nextID,
		state:  "starting",
		stream: newStream(),
	}
	r.cond = sync.NewCond(&r.mu)
	r.mu.Lock()
	r.publish()
	r.mu.Unlock()
	s.runs[r.id] = r
	return r
}

// lookup finds a run by id.
func (s *Server) lookup(id string) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// launch builds (or restores) the run's session and drives it to the
// end on a worker slot. build runs on the worker too: restores replay
// potentially long histories and must not block the submitting
// request.
func (s *Server) launch(r *run, build func(opt checkpoint.Options) (checkpoint.Session, error)) {
	go func() {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()

		sess, err := build(checkpoint.Options{SnapshotOut: r.stream})
		r.mu.Lock()
		if err != nil {
			r.state = "failed"
			r.errMsg = err.Error()
			r.publish()
			r.cond.Broadcast()
			r.mu.Unlock()
			r.stream.Close()
			return
		}
		r.sess = sess
		if r.state == "starting" {
			r.state = "running"
		}
		r.publish()
		r.cond.Broadcast()
		r.mu.Unlock()

		for {
			r.mu.Lock()
			for r.state == "paused" {
				r.cond.Wait()
			}
			now, end := r.sess.Now(), r.sess.End()
			if now >= end {
				r.finish()
				r.cond.Broadcast()
				r.mu.Unlock()
				r.stream.Close()
				return
			}
			next := now + Slice
			if next > end {
				next = end
			}
			r.sess.AdvanceTo(next)
			r.publish()
			r.mu.Unlock()
		}
	}()
}

// finish ends a run whose session reached its end: it captures the
// end checkpoint once for later checkpoint and fork requests, marshals
// the result, and drops the session, so a finished run holds only what
// it publishes. The capture comes first because Result may stop the
// scenario's processes: a checkpoint taken after it records state that
// no replay to the end reproduces, and Restore rejects it. The caller
// holds r.mu.
func (r *run) finish() {
	r.endCP, r.endErr = checkpoint.Capture(r.sess)
	if res, err := json.Marshal(r.sess.Result()); err != nil {
		r.state, r.errMsg = "failed", err.Error()
	} else {
		r.state, r.result = "done", res
	}
	r.publish() // while the session still gives the final clock
	r.sess = nil
}

// runStatus is the JSON shape of one run in list/status responses.
type runStatus struct {
	// ID is the run's identifier ("r1", "r2", ...).
	ID string `json:"id"`
	// Kind is the session kind the run hosts.
	Kind string `json:"kind"`
	// State is "starting", "running", "paused", "done" or "failed".
	State string `json:"state"`
	// AtNS / EndNS are the run's virtual clock and end, nanoseconds.
	AtNS  int64 `json:"at_ns"`
	EndNS int64 `json:"end_ns"`
	// Error carries the failure reason when State is "failed".
	Error string `json:"error,omitempty"`
	// Result is the session's result JSON, present when State is
	// "done".
	Result json.RawMessage `json:"result,omitempty"`
}

// publish stores the run's current status for lock-free readers and
// returns it. The caller holds r.mu. A run without a session has not
// been built yet and reports a zero clock and end.
func (r *run) publish() runStatus {
	st := runStatus{ID: r.id, Kind: r.kind, State: r.state, Error: r.errMsg, Result: r.result}
	if r.sess != nil {
		st.AtNS, st.EndNS = int64(r.sess.Now()), int64(r.sess.End())
	}
	r.pub.Store(&st)
	return st
}

// status returns the run's last published status, with the result
// JSON only when withResult is set. It never waits for the run lock,
// so a status read while a slice is advancing reports the last
// completed slice boundary.
func (r *run) status(withResult bool) runStatus {
	st := *r.pub.Load()
	if !withResult {
		st.Result = nil
	}
	return st
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes a JSON error response.
func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleKinds(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"kinds": checkpoint.Kinds()})
}

// submitRequest is the POST /api/runs body.
type submitRequest struct {
	// Kind is the registered session kind to run.
	Kind string `json:"kind"`
	// Spec is the kind's scenario spec JSON.
	Spec json.RawMessage `json:"spec"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var sub submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes)).Decode(&sub); err != nil {
		httpError(w, http.StatusBadRequest, "bad submit body: %v", err)
		return
	}
	if sub.Spec == nil {
		sub.Spec = json.RawMessage("{}")
	}
	// Validate kind and spec synchronously so submission errors reach
	// the client, then rebuild on the worker: sessions are
	// single-goroutine objects, and the probe session here is discarded.
	if _, err := checkpoint.Build(sub.Kind, sub.Spec, checkpoint.Options{}); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	r := s.newRun(sub.Kind)
	spec := append(json.RawMessage(nil), sub.Spec...)
	s.launch(r, func(opt checkpoint.Options) (checkpoint.Session, error) {
		return checkpoint.Build(sub.Kind, spec, opt)
	})
	writeJSON(w, http.StatusAccepted, map[string]string{"id": r.id})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].seq < runs[j].seq })
	out := make([]runStatus, len(runs))
	for i, r := range runs {
		out[i] = r.status(false)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"runs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, r.status(true))
}

func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	off := 0
	for {
		chunk, closed := r.stream.waitFrom(off, req.Context().Done())
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
			off += len(chunk)
		}
		if closed && len(chunk) == 0 {
			return
		}
		if req.Context().Err() != nil {
			return
		}
	}
}

func (s *Server) handlePause(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	r.mu.Lock()
	switch r.state {
	case "running", "starting":
		r.state = "paused"
	case "paused":
	default:
		st := r.state
		r.mu.Unlock()
		httpError(w, http.StatusConflict, "cannot pause a %s run", st)
		return
	}
	// Reply with the status published under the lock: a run paused
	// before its session is built must report end_ns 0, even if the
	// build completes before the reply is written.
	st := r.publish()
	r.cond.Broadcast()
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResume(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	r.mu.Lock()
	if r.state == "paused" {
		if r.sess == nil {
			r.state = "starting"
		} else {
			r.state = "running"
		}
		r.publish()
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, r.status(false))
}

// capture takes a checkpoint of the run between slices. The run keeps
// going afterwards (pause first for a stable download point — the
// checkpoint itself is consistent either way, since capture holds the
// run lock). A finished run returns the end checkpoint it captured
// when it finished.
func (r *run) capture() (*checkpoint.Checkpoint, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == "done" {
		return r.endCP, r.endErr
	}
	// A pause can land before the build finishes; wait for the session
	// rather than racing it.
	for r.sess == nil && r.state != "failed" {
		r.cond.Wait()
	}
	if r.sess == nil {
		return nil, fmt.Errorf("run %s failed: %s", r.id, r.errMsg)
	}
	return checkpoint.Capture(r.sess)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	cp, err := r.capture()
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleRestore(w http.ResponseWriter, req *http.Request) {
	cp, err := checkpoint.Decode(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	r := s.newRun(cp.Kind)
	s.launch(r, func(opt checkpoint.Options) (checkpoint.Session, error) {
		return checkpoint.Restore(cp, opt)
	})
	writeJSON(w, http.StatusAccepted, map[string]string{"id": r.id})
}

// forkRequest is the POST /api/runs/{id}/fork body.
type forkRequest struct {
	// Edits are applied at the fork point, in order.
	Edits []checkpoint.Edit `json:"edits"`
}

func (s *Server) handleFork(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	var fr forkRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes)).Decode(&fr); err != nil && err != io.EOF {
		httpError(w, http.StatusBadRequest, "bad fork body: %v", err)
		return
	}
	cp, err := r.capture()
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	nr := s.newRun(cp.Kind)
	s.launch(nr, func(opt checkpoint.Options) (checkpoint.Session, error) {
		return checkpoint.Fork(cp, fr.Edits, opt)
	})
	writeJSON(w, http.StatusAccepted, map[string]string{"id": nr.id})
}
