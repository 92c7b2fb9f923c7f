package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"event queue under the engine", []string{"container/heap.up", "container/heap.Push", "whitefi/internal/sim.(*Engine).Schedule", "whitefi/internal/mac.(*Node).startBackoff", "whitefi/internal/sim.(*Engine).Run"}, "sim"},
		{"allocation charged to its caller", []string{"runtime.mallocgc", "runtime.growslice", "whitefi/internal/mac.(*Air).Transmit", "whitefi/internal/sim.(*Engine).Run", "main.(*bench).batchRep"}, "mac"},
		{"generic and closure names", []string{"whitefi/internal/exp.buildDenseCity.func3", "whitefi/internal/sim.(*Engine).RunUntil"}, "exp"},
		{"server handler under net/http", []string{"encoding/json.(*encodeState).marshal", "whitefi/internal/server.writeJSON", "whitefi/internal/server.(*Server).handleStatus", "net/http.(*conn).serve"}, "server"},
		{"background GC worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerRuntime},
		{"scheduler", []string{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, layerRuntime},
		{"benchmark client", []string{"encoding/json.Unmarshal", "main.(*bench).serveRep", "main.main"}, layerUnattributed},
		{"loopback plumbing", []string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).readLoop"}, layerUnattributed},
		{"empty stack", nil, layerUnattributed},
		{"prefix lookalike is not a layer", []string{"whitefi/internalx.f", "runtime.goexit"}, layerUnattributed},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: charged to %q, want %q", c.name, got, c.want)
		}
	}

	var split cpuSplit
	split.add([]cpuSample{
		{stack: cases[0].stack, count: 3, ns: 30e6},
		{stack: cases[4].stack, count: 1, ns: 10e6},
		{stack: cases[6].stack, count: 1, ns: 10e6},
	})
	if split.total != 5 || split.ns["sim"] != 30e6 || split.attributed() != 0.8 {
		t.Errorf("split %+v attributed %v", split, split.attributed())
	}
}

// spin burns CPU until d has passed.
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiler busy: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var count, ns int64
	found := false
	for _, s := range samples {
		count += s.count
		ns += s.ns
		for _, fn := range s.stack {
			if fn == "whitefi/perfbench.spin" || fn == "main.spin" {
				found = true
			}
		}
	}
	if count == 0 || ns == 0 || !found {
		t.Errorf("%d samples, %d ns, spin frame found %v", count, ns, found)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed")
	}
}
