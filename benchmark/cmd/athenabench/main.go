// Command athenabench is the repository's benchmark (see ../../README.md).
//
//	athenabench -workload paper_solo -seed 1 -seconds 10 -trace 0
//	athenabench -workload all -repeat 5 -out a.json
//	athenabench -compare a.json b.json
//
// A single run prints every metric by name with its unit and, as the last
// line of standard output, one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"

	"repro/benchmark"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: one of the names in BENCHMARK.json, or all (with -repeat)")
		seed     = flag.Int64("seed", 1, "traffic seed; seed 2 is held out")
		secs     = flag.Float64("seconds", 10, "length of the measured section")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = flag.String("tracefile", ".bench_build/trace.jsonl", "where a traced run writes its spans")
		repeat   = flag.Int("repeat", 0, "run each selected workload this many times, each in a child process")
		out      = flag.String("out", "", "write the run(s) to this file as a report")
		compare  = flag.Bool("compare", false, "compare two report files given as arguments")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(2, "usage: athenabench -compare a.json b.json")
		}
		a, err := benchmark.ReadReport(flag.Arg(0))
		check(err)
		b, err := benchmark.ReadReport(flag.Arg(1))
		check(err)
		if worse, unresolved := benchmark.Compare(os.Stdout, a, b); worse+unresolved > 0 {
			fail(1, fmt.Sprintf("%d WORSE, %d UNRESOLVED", worse, unresolved))
		}
	case *repeat > 0:
		if *out == "" {
			fail(2, "-repeat needs -out")
		}
		names := []string{*workload}
		if *workload == "all" {
			names = benchmark.Workloads()
		}
		rep := &benchmark.Report{}
		for _, name := range names {
			for i := 0; i < *repeat; i++ {
				rep.Runs = append(rep.Runs, child(name, *seed, *secs, *trace, *traceOut, *out+".run"))
				check(rep.WriteFile(*out))
			}
		}
	default:
		res, err := benchmark.Run(benchmark.Options{
			Workload: *workload, Seed: *seed, Seconds: *secs, Trace: *trace != 0, TracePath: *traceOut,
		})
		if errors.Is(err, benchmark.ErrInvalid) {
			fail(3, err.Error())
		}
		check(err)
		if *out != "" {
			check((&benchmark.Report{Runs: []*benchmark.Result{res}}).WriteFile(*out))
		}
		res.Print(os.Stdout)
		line, err := json.Marshal(struct {
			Correct   bool                        `json:"correct"`
			Attempted int                         `json:"attempted"`
			Failed    int                         `json:"failed"`
			Metrics   map[string]benchmark.Metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		check(err)
		fmt.Println(string(line))
	}
}

// child runs one run in a process of its own — fresh stack, cold caches, its
// own resident set — and reads its report back.
func child(workload string, seed int64, secs float64, trace int, traceOut, runFile string) *benchmark.Result {
	self, err := os.Executable()
	check(err)
	defer os.Remove(runFile)
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs),
		"-trace", fmt.Sprint(trace), "-tracefile", traceOut, "-out", runFile)
	cmd.Stderr = os.Stderr
	check(cmd.Run())
	rep, err := benchmark.ReadReport(runFile)
	check(err)
	rep.Runs[0].Print(os.Stdout)
	return rep.Runs[0]
}

func check(err error) {
	if err != nil {
		fail(1, err.Error())
	}
}

func fail(code int, msg string) {
	fmt.Fprintln(os.Stderr, "athenabench:", msg)
	os.Exit(code)
}
