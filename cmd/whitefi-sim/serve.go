package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/exp"
	"whitefi/internal/server"
)

// Session-based modes: -serve turns the process into the simulation
// server (internal/server); the -scenario / -restore pair runs one
// registered session kind in batch, optionally writing or consuming a
// checkpoint document on the way.
var (
	serveAddr    = flag.String("serve", "", "serve the simulation control API on this address (e.g. :8090) instead of running one scenario: submit, stream, pause, checkpoint, fork and resume runs over HTTP (see internal/server)")
	serveWorkers = flag.Int("serve-workers", 0, "max concurrently advancing runs in -serve mode (0 = 4)")
	scenarioKind = flag.String("scenario", "", "run one registered session kind (densecity | tiledcity | mixedtraffic | faultstorm) in batch and print its result JSON; configure with -scenario-config")
	scenarioSpec = flag.String("scenario-config", "{}", "JSON spec of the -scenario session")
	checkpointAt = flag.Duration("checkpoint-at", 0, "with -scenario and -checkpoint: pause at this virtual time and write the checkpoint before running on to the end")
	checkpointTo = flag.String("checkpoint", "", "with -scenario: write the -checkpoint-at checkpoint document to this file")
	restoreFrom  = flag.String("restore", "", "restore a checkpoint document from this file, replay it, run it to the end and print its result JSON")
)

// maybeSession dispatches the session-based modes. Returns true when
// one of them ran (or failed) and main should stop.
func maybeSession() bool {
	modes := 0
	for _, on := range []bool{*serveAddr != "", *scenarioKind != "", *restoreFrom != ""} {
		if on {
			modes++
		}
	}
	if modes == 0 {
		return false
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "-serve, -scenario and -restore are mutually exclusive")
		os.Exit(2)
	}
	exp.RegisterSessions()
	switch {
	case *serveAddr != "":
		runServe(*serveAddr, *serveWorkers)
	case *scenarioKind != "":
		runScenario(*scenarioKind, *scenarioSpec, *checkpointAt, *checkpointTo)
	default:
		runRestore(*restoreFrom)
	}
	return true
}

// runServe blocks serving the simulation control API.
func runServe(addr string, workers int) {
	srv := server.New(workers)
	fmt.Fprintf(os.Stderr, "serving simulation API on %s (kinds: %v)\n", addr, checkpoint.Kinds())
	if err := newHTTPServer(addr, srv.Handler()).ListenAndServe(); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
}

// newHTTPServer returns the -serve HTTP server for h on addr. A client
// gets 10 s to send its request headers, and an idle keep-alive
// connection closes after 2 minutes, so a stalled client cannot hold a
// connection forever. There is no write timeout: /api/runs/{id}/stream
// follows a run for its whole life.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

// fail prints err and exits.
func fail(context string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", context, err)
	os.Exit(1)
}

// printResult writes the finished session's result as one JSON line.
func printResult(s checkpoint.Session) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(s.Result()); err != nil {
		fail("result", err)
	}
}

// runScenario runs one session kind to the end, optionally writing a
// checkpoint document mid-run.
func runScenario(kind, spec string, at time.Duration, out string) {
	s, err := checkpoint.Build(kind, json.RawMessage(spec), checkpoint.Options{})
	if err != nil {
		fail("build", err)
	}
	if at > 0 && out != "" {
		if at >= s.End() {
			fail("checkpoint", fmt.Errorf("-checkpoint-at %v is past the run end %v", at, s.End()))
		}
		s.AdvanceTo(at)
		cp, err := checkpoint.Capture(s)
		if err != nil {
			fail("capture", err)
		}
		f, err := os.Create(out)
		if err != nil {
			fail("checkpoint", err)
		}
		if err := cp.Encode(f); err != nil {
			fail("encode", err)
		}
		if err := f.Close(); err != nil {
			fail("checkpoint", err)
		}
		fmt.Fprintf(os.Stderr, "checkpoint at %v written to %s\n", at, out)
	} else if at > 0 || out != "" {
		fmt.Fprintln(os.Stderr, "-checkpoint-at and -checkpoint must be set together")
		os.Exit(2)
	}
	s.AdvanceTo(s.End())
	printResult(s)
}

// runRestore loads a checkpoint document, restores (and thereby
// replays) its session, runs it to the end and prints the result.
func runRestore(path string) {
	f, err := os.Open(path)
	if err != nil {
		fail("restore", err)
	}
	cp, err := checkpoint.Decode(f)
	f.Close()
	if err != nil {
		fail("decode", err)
	}
	s, err := checkpoint.Restore(cp, checkpoint.Options{})
	if err != nil {
		fail("restore", err)
	}
	fmt.Fprintf(os.Stderr, "restored %s run at %v, continuing to %v\n", cp.Kind, cp.At, s.End())
	s.AdvanceTo(s.End())
	printResult(s)
}
