// Command benchrunner regenerates the paper's evaluation artifacts:
// Figure 1 (latency improvement per selected query), Figure 2 (fraction of
// data read vs baseline), the whole-workload summary, and auxiliary
// CPU/memory metrics. Speed of the engine itself is measured over the wire
// by benchmark/ (see benchmark/README.md), not here.
//
// Usage:
//
//	benchrunner                      # everything at default scale
//	benchrunner -figure 1            # just Figure 1
//	benchrunner -q q65,q09           # specific queries
//	benchrunner -scale 0.5 -iters 5  # bigger data, steadier timings
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		scale  = flag.Float64("scale", 0.2, "data scale factor (1.0 ≈ 100k fact rows)")
		seed   = flag.Int64("seed", 42, "data generator seed")
		iters  = flag.Int("iters", 3, "timing iterations per query per engine")
		figure = flag.Int("figure", 0, "render only figure 1 or 2 (0 = everything)")
		qlist  = flag.String("q", "", "comma-separated query names (default: whole workload)")
	)
	flag.Parse()

	opts := bench.Options{Scale: *scale, Seed: *seed, Iterations: *iters}
	label := "the full workload"
	if *qlist != "" {
		opts.Queries = strings.Split(*qlist, ",")
		label = strings.Join(opts.Queries, ", ")
	}

	fmt.Fprintf(os.Stderr, "generating TPC-DS data at scale %.2f and running %s...\n", *scale, label)
	report, err := bench.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}

	switch *figure {
	case 1:
		report.WriteFigure1(os.Stdout)
	case 2:
		report.WriteFigure2(os.Stdout)
	default:
		report.WriteFigure1(os.Stdout)
		fmt.Println()
		report.WriteFigure2(os.Stdout)
		fmt.Println()
		report.WriteCPUAndMemory(os.Stdout)
		fmt.Println()
		report.WriteSpoolComparison(os.Stdout)
		fmt.Println()
		report.WriteSummary(os.Stdout)
	}
}
