package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Report is the one result schema: the runs of one invocation, each with
// its environment and sample counts.
type Report struct {
	Runs []*Result `json:"runs"`
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadReport reads a report written by WriteFile.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", path, err)
	}
	return &r, nil
}

// Print writes every metric of the result by name with its unit and sample
// count, preceded by the environment.
func (r *Result) Print(w io.Writer) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s seed %d (%s): attempted %d, failed %d, correct %v\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.Correct)
	e := r.Env
	fmt.Fprintf(w, "env: nproc %d, GOMAXPROCS %d, %s, commit %s, scale %g, connections %d\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Scale, e.Connections)
	for _, name := range r.metricNames() {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %-8s n=%d\n", name, m.Value, m.Unit, r.Samples[name])
	}
}

// values collects one metric of one workload's untraced runs.
func (r *Report) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if m, ok := run.Metrics[metric]; ok && run.Workload == workload && !run.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) does; xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Spread is the distance between the first and third quartile as a share of
// the median, and the median itself; with fewer than two values the spread
// is unknown and reported as 0.
func Spread(xs []float64) (spread, median float64) {
	switch len(xs) {
	case 0:
		return 0, 0
	case 1:
		return 0, xs[0]
	}
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2), q2
}

// Compare prints, per workload and end-to-end metric, both reports' medians,
// by how much b is worse than a as a share of a, and a verdict against the
// metric's bound: WORSE beyond the bound, UNRESOLVED when either side's
// spread is wider than the bound, PASS otherwise. It returns how many rows
// were WORSE and how many UNRESOLVED.
func Compare(w io.Writer, a, b *Report) (worse, unresolved int) {
	fmt.Fprintf(w, "%-15s %-28s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, wl := range Workloads() {
		for _, d := range EndToEnd {
			va, vb := a.values(wl, d.Name), b.values(wl, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, ma := Spread(va)
			sb, mb := Spread(vb)
			by := ratio(mb-ma, ma)
			if d.Better == "higher" {
				by = -by
			}
			verdict := "PASS"
			switch {
			case by > d.Bound:
				verdict = "WORSE"
				worse++
			case max(sa, sb) > d.Bound:
				verdict = "UNRESOLVED"
				unresolved++
			}
			fmt.Fprintf(w, "%-15s %-28s %12.4f %12.4f %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl, d.Name, ma, mb, 100*by, 100*max(sa, sb), 100*d.Bound, verdict)
		}
	}
	return worse, unresolved
}
