// Command perfbench is the repository benchmark. It drives the WhiteFi
// simulator only through its public surfaces — checkpoint.Build,
// Session.AdvanceTo in server.Slice steps, checkpoint.Capture/Encode/
// Decode/Restore and Result() for the batch workloads, and the HTTP
// API of server.New on a loopback listener for the served one — checks
// every output, and prints its metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload city --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a
// separate traced run, and the spans and CPU profiles are written under
// .bench_build/trace. A failed operation or an output that differs from
// its pin or reference makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"whitefi/internal/exp"
)

// defaultSeed is the seed whose outputs are pinned in pins.go.
const defaultSeed = 1

// traceDir is where a traced run writes its spans and CPU profiles,
// relative to the repository root the command runs from.
var traceDir = filepath.Join(".bench_build", "trace")

// metricDef names one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics of a run with tracing off, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"speed_x", "x", "higher"},
	{"control_p50_ms", "ms", "lower"},
	{"control_tail_ms", "ms", "lower"},
	{"checkpoint_ms", "ms", "lower"},
	{"restore_s", "s", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// workload is one named input set. A run repeats whole cycles of the
// workload's layouts within its time budget; every metric covers whole
// cycles, so each layout weighs the same.
type workload struct {
	name string
	// layouts is the number of seed-derived specs one cycle runs. It
	// is sized so that one cycle takes 20-28 s on a shared 2-vCPU VM:
	// as many layouts as fit, while a run on a host a fifth slower,
	// which never stops inside a cycle, still lasts about run_seconds.
	layouts int
	// rep runs one layout once, recording into b.
	rep func(b *bench, layout int)
}

var workloads = []*workload{
	{name: "city", layouts: 4, rep: func(b *bench, l int) { b.batchRep(citySpec(b.seed, l, b.telemetry()), l) }},
	{name: "storm", layouts: 12, rep: func(b *bench, l int) { b.batchRep(stormSpec(b.seed, l, b.telemetry()), l) }},
	{name: "tiled-mobile", layouts: 6, rep: func(b *bench, l int) { b.batchRep(tiledSpec(b.seed, l, b.telemetry()), l) }},
	{name: "serve", layouts: 5, rep: func(b *bench, l int) { b.serveRep(l) }},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// result is the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricValue is one metric with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "city", "workload: city, storm, tiled-mobile or serve")
	seed := flag.Int64("seed", defaultSeed, "workload seed; every spec is generated from it")
	seconds := flag.Float64("seconds", 30, "measurement budget in host seconds, filled with whole cycles of the workload's layouts")
	traceFlag := flag.Int("trace", 0, "1 makes a traced run reporting per-layer metrics")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	exp.RegisterSessions()
	b := newBench(w, *seed, *traceFlag == 1)
	b.run(time.Duration(*seconds * float64(time.Second)))

	var defs []metricDef
	var vals map[string]float64
	if b.traced {
		defs, vals = perLayer, b.perLayerValues()
		if err := b.writeTrace(traceDir); err != nil {
			b.led.op(failError, fmt.Errorf("write trace: %w", err))
		}
	} else {
		defs, vals = endToEnd, b.endToEndValues()
	}
	b.report(os.Stdout, defs, vals)

	res := result{
		Correct:   b.led.failed == 0,
		Attempted: b.led.attempted,
		Failed:    b.led.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// maxProcs is the load ceiling: client goroutines, shard workers,
// server workers and client connections stay within it.
func maxProcs() int {
	n := runtime.GOMAXPROCS(0)
	if n > 2 {
		n = 2
	}
	return n
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
