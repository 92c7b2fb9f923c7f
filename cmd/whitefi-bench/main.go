// Command whitefi-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	whitefi-bench -exp all
//	whitefi-bench -exp table1,fig8,fig14 -reps 5
//	whitefi-bench -exp densecity -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The -cpuprofile/-memprofile flags write pprof profiles covering the
// selected experiment runs, so profiling a scenario needs no test
// edits: `go tool pprof cpu.pprof` on the output.
//
// Experiment ids match DESIGN.md's per-experiment index: sec2.1, fig2,
// sec2.3, fig5, table1, fig6, fig7, fig8, fig9, sec5.3, fig10, fig11,
// fig12, fig13, fig14, the ablations ablation-window, ablation-mcham,
// ablation-jsift, ablation-hysteresis, ablation-weight, and the
// beyond-the-paper scenarios driveby, roaming, mic-churn, densecity,
// mixedtraffic (per-flow telemetry under generated flow mixes),
// densecity-traffic (the city sweep crossed with traffic mixes) and
// faultstorm (injected AP crashes, scanner stalls, overload and bursty
// loss vs goodput retained and MTTR), and densecity-sharded (the tiled
// city on the sharded parallel engine across shard counts, pinning
// byte-identical digests and reporting the wall-clock speedup).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"whitefi/internal/exp"
	"whitefi/internal/trace"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	reps := flag.Int("reps", 3, "repetitions / random placements per data point")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the runs to this file")
	flag.Parse()
	if *reps < 1 {
		// Every table is a median over reps samples: none leaves it
		// empty, and a negative count cannot size a sample slice.
		fmt.Fprintf(os.Stderr, "-reps must be at least 1, got %d\n", *reps)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	runners := map[string]func(int) *trace.Table{
		"sec2.1": func(r int) *trace.Table { return exp.Sec21(r) },
		"fig2":   func(int) *trace.Table { return exp.Fig2() },
		"sec2.3": func(int) *trace.Table { return exp.Sec23() },
		"fig5":   func(int) *trace.Table { return exp.Fig5() },
		"table1": exp.Table1,
		"fig6":   exp.Fig6,
		"fig7":   exp.Fig7Table,
		"fig8": func(r int) *trace.Table {
			return exp.Fig8Table(r, []int{1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 30})
		},
		"fig9":   exp.Fig9,
		"sec5.3": exp.Sec53,
		"fig10":  exp.Fig10Table,
		"fig11": func(r int) *trace.Table {
			return exp.Fig11(r, []int{0, 4, 8, 12, 17, 24})
		},
		"fig12": func(r int) *trace.Table {
			return exp.Fig12(r, []float64{0, 0.01, 0.02, 0.05, 0.08, 0.10, 0.14})
		},
		"fig13": exp.Fig13,
		"fig14": func(int) *trace.Table { return exp.Fig14Table(42) },

		"ablation-window":     exp.AblationSIFTWindow,
		"ablation-mcham":      exp.AblationMChamAggregation,
		"ablation-jsift":      exp.AblationJSIFTEndgame,
		"ablation-hysteresis": exp.AblationHysteresis,
		"ablation-weight": func(int) *trace.Table {
			return exp.AblationAPWeight(100)
		},

		"driveby":           exp.DriveByTable,
		"roaming":           exp.RoamingTable,
		"mic-churn":         exp.MicChurnTable,
		"densecity":         exp.DenseCityTable,
		"mixedtraffic":      exp.MixedTrafficTable,
		"densecity-traffic": exp.DenseCityTrafficTable,
		"faultstorm":        exp.FaultStormTable,
		"densecity-sharded": exp.ShardedCityTable,
	}
	order := []string{
		"sec2.1", "fig2", "sec2.3", "fig5", "table1", "fig6", "fig7",
		"fig8", "fig9", "sec5.3", "fig10", "fig11", "fig12", "fig13",
		"fig14", "ablation-window", "ablation-mcham", "ablation-jsift",
		"ablation-hysteresis", "ablation-weight",
		"driveby", "roaming", "mic-churn", "densecity",
		"mixedtraffic", "densecity-traffic", "faultstorm",
		"densecity-sharded",
	}

	var ids []string
	if *expFlag == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			if _, ok := runners[id]; !ok {
				known := make([]string, 0, len(runners))
				for k := range runners {
					known = append(known, k)
				}
				sort.Strings(known)
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(known, ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	for _, id := range ids {
		fmt.Printf("=== %s ===\n", id)
		runners[id](*reps).Render(os.Stdout)
		fmt.Println()
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // settle allocation stats before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}
