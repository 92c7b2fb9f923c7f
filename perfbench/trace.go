package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// span is one timed call the benchmark made into the simulator.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	// StartNS/EndNS are host nanoseconds since the benchmark started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how timed runs keep tracing off. Only the
// goroutine driving the workload records spans.
type tracer struct {
	t0    time.Time
	next  int
	spans []span
}

// newID reserves a span id, so children can name their parent before
// the parent span is recorded. Nil tracers return 0 (no parent).
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.next++
	return t.next
}

// add records the span id (0 allocates one) and returns its id.
func (t *tracer) add(id, parent int, run, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0))})
	return id
}

// total sums the durations of the spans with the given name, seconds.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as JSONL.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshotLine is the part of an internal/obs snapshot record the
// benchmark reads.
type snapshotLine struct {
	Event    string             `json:"event"`
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	Hists    map[string]struct {
		Count int64 `json:"count"`
	} `json:"hists"`
}

// streamStats folds one session's snapshot stream: the last snapshot's
// counters and histogram counts, the peak of every gauge, and the
// stream size.
type streamStats struct {
	counters map[string]int64
	hists    map[string]int64
	peaks    map[string]float64
	bytes    int
}

// readStream parses a JSONL snapshot stream.
func readStream(b []byte) (streamStats, error) {
	st := streamStats{peaks: map[string]float64{}, bytes: len(b)}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec snapshotLine
		if err := json.Unmarshal(line, &rec); err != nil {
			return st, fmt.Errorf("snapshot line: %w", err)
		}
		if rec.Event != "snapshot" {
			continue
		}
		st.counters = rec.Counters
		st.hists = map[string]int64{}
		for k, h := range rec.Hists {
			st.hists[k] = h.Count
		}
		for k, v := range rec.Gauges {
			if v > st.peaks[k] {
				st.peaks[k] = v
			}
		}
	}
	return st, nil
}

// procCPU returns the process's user+system CPU time.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read around traced work.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

// readRuntime samples runtimeSamples as float64s.
func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// liveHeapMiB forces a collection and returns the live heap it found.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
