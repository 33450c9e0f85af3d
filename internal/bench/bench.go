// Package bench is the evaluation harness: it runs the TPC-DS workload
// against a baseline engine (fusion off) and an instrumented engine (fusion
// on) over the same store, and renders the paper's evaluation artifacts —
// Figure 1 (latency improvement per selected query), Figure 2 (fraction of
// data read per selected query), and the §V whole-workload aggregates
// (overall improvement, mean improvement on changed-plan queries, maximum
// speedup).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/engine"
	"repro/internal/tpcds"
)

// QueryReport compares one query's baseline and fused runs.
type QueryReport struct {
	Name     string
	Affected bool
	Pattern  string

	BaselineLatency time.Duration
	FusedLatency    time.Duration
	BaselineBytes   int64
	FusedBytes      int64
	BaselineCPU     int64 // rows processed across operators
	FusedCPU        int64
	BaselineHash    int64 // rows held in hash state (memory proxy)
	FusedHash       int64
	RulesFired      []string
	PlanChanged     bool

	// Spooling comparator (§I): latency, base-table bytes, and intermediate
	// write/read volume with EnableSpooling instead of fusion.
	SpoolLatency time.Duration
	SpoolBytes   int64
	SpoolWritten int64
	SpoolRead    int64
}

// Speedup is baseline latency / fused latency.
func (r *QueryReport) Speedup() float64 {
	if r.FusedLatency <= 0 {
		return 1
	}
	return float64(r.BaselineLatency) / float64(r.FusedLatency)
}

// LatencyImprovement is the fractional latency reduction (paper Figure 1).
func (r *QueryReport) LatencyImprovement() float64 {
	if r.BaselineLatency <= 0 {
		return 0
	}
	return 1 - float64(r.FusedLatency)/float64(r.BaselineLatency)
}

// BytesFraction is fused bytes / baseline bytes (paper Figure 2 reports the
// fraction of input data read compared to the baseline).
func (r *QueryReport) BytesFraction() float64 {
	if r.BaselineBytes <= 0 {
		return 1
	}
	return float64(r.FusedBytes) / float64(r.BaselineBytes)
}

// CPUReduction is the fractional reduction in rows processed.
func (r *QueryReport) CPUReduction() float64 {
	if r.BaselineCPU <= 0 {
		return 0
	}
	return 1 - float64(r.FusedCPU)/float64(r.BaselineCPU)
}

// WorkloadReport aggregates the full run.
type WorkloadReport struct {
	Scale   float64
	Queries []QueryReport
}

// Overall returns the whole-workload latency improvement (the paper's
// "improves the overall execution time of the 99-query workload by 14%").
func (w *WorkloadReport) Overall() float64 {
	var base, fused time.Duration
	for _, q := range w.Queries {
		base += q.BaselineLatency
		fused += q.FusedLatency
	}
	if base <= 0 {
		return 0
	}
	return 1 - float64(fused)/float64(base)
}

// AffectedMean returns the mean latency improvement over queries whose
// plans changed (the paper's "60% improvement in performance on average").
func (w *WorkloadReport) AffectedMean() float64 {
	var sum float64
	n := 0
	for _, q := range w.Queries {
		if q.PlanChanged {
			sum += q.LatencyImprovement()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxSpeedup returns the largest per-query speedup (paper: "some queries
// improving performance over 6 times").
func (w *WorkloadReport) MaxSpeedup() float64 {
	best := 1.0
	for _, q := range w.Queries {
		if s := q.Speedup(); s > best {
			best = s
		}
	}
	return best
}

// Options configures a workload run.
type Options struct {
	Scale float64
	Seed  int64
	// Iterations per query per engine; the minimum latency is reported
	// (steadiest estimator for in-process runs).
	Iterations int
	// Queries restricts the run to the named queries (nil = all).
	Queries []string
}

// Run executes the workload and returns the comparison report.
func Run(opts Options) (*WorkloadReport, error) {
	if opts.Iterations <= 0 {
		opts.Iterations = 1
	}
	if opts.Scale <= 0 {
		opts.Scale = 0.2
	}
	st, err := tpcds.NewLoadedStore(opts.Scale, opts.Seed)
	if err != nil {
		return nil, err
	}
	base := engine.OpenWithStore(st, engine.Config{EnableFusion: false})
	fused := engine.OpenWithStore(st, engine.Config{EnableFusion: true})
	spool := engine.OpenWithStore(st, engine.Config{EnableSpooling: true})

	var queries []tpcds.Query
	if len(opts.Queries) == 0 {
		queries = tpcds.Queries()
	} else {
		for _, name := range opts.Queries {
			q, ok := tpcds.Get(name)
			if !ok {
				return nil, fmt.Errorf("bench: unknown query %q", name)
			}
			queries = append(queries, q)
		}
	}

	report := &WorkloadReport{Scale: opts.Scale}
	for _, q := range queries {
		qr, err := RunQuery(base, fused, q, opts.Iterations)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", q.Name, err)
		}
		if q.Affected {
			for i := 0; i < opts.Iterations; i++ {
				res, err := spool.Query(q.SQL)
				if err != nil {
					return nil, fmt.Errorf("bench: %s (spool): %w", q.Name, err)
				}
				if i == 0 || res.Metrics.Elapsed < qr.SpoolLatency {
					qr.SpoolLatency = res.Metrics.Elapsed
				}
				qr.SpoolBytes = res.Metrics.Storage.BytesScanned
				qr.SpoolWritten = res.Metrics.SpoolBytesWritten
				qr.SpoolRead = res.Metrics.SpoolBytesRead
			}
		}
		report.Queries = append(report.Queries, *qr)
	}
	return report, nil
}

// WriteSpoolComparison renders the §I fusion-vs-spooling comparison for the
// selected queries: fusion avoids both the duplicate evaluation *and* the
// intermediate write/read traffic that spooling pays; spooling covers only
// syntactically identical duplicates (it leaves q09/q28 untouched).
func (w *WorkloadReport) WriteSpoolComparison(out io.Writer) {
	fmt.Fprintln(out, "Fusion vs spooling (the paper's §I comparator) — selected queries")
	fmt.Fprintln(out, "query | baseline | fused    | spooled  | spool write | spool read")
	fmt.Fprintln(out, "------+----------+----------+----------+-------------+-----------")
	for _, q := range w.selected() {
		spooled := "   n/a"
		if q.SpoolLatency > 0 {
			spooled = fmtDur(q.SpoolLatency)
		}
		fmt.Fprintf(out, "%-5s | %8s | %8s | %8s | %11d | %10d\n",
			q.Name, fmtDur(q.BaselineLatency), fmtDur(q.FusedLatency), spooled,
			q.SpoolWritten, q.SpoolRead)
	}
}

// RunQuery measures one query on both engines.
func RunQuery(base, fused *engine.Engine, q tpcds.Query, iterations int) (*QueryReport, error) {
	qr := &QueryReport{Name: q.Name, Affected: q.Affected, Pattern: q.Pattern}
	for i := 0; i < iterations; i++ {
		res, err := base.Query(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		if i == 0 || res.Metrics.Elapsed < qr.BaselineLatency {
			qr.BaselineLatency = res.Metrics.Elapsed
		}
		qr.BaselineBytes = res.Metrics.Storage.BytesScanned
		qr.BaselineCPU = res.Metrics.RowsProcessed
		qr.BaselineHash = res.Metrics.HashRows
	}
	for i := 0; i < iterations; i++ {
		res, err := fused.Query(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("fused: %w", err)
		}
		if i == 0 || res.Metrics.Elapsed < qr.FusedLatency {
			qr.FusedLatency = res.Metrics.Elapsed
		}
		qr.FusedBytes = res.Metrics.Storage.BytesScanned
		qr.FusedCPU = res.Metrics.RowsProcessed
		qr.FusedHash = res.Metrics.HashRows
		qr.RulesFired = res.RulesFired
	}
	qr.PlanChanged = len(qr.RulesFired) > 0
	return qr, nil
}

// selectedOrder is the x-axis order of the paper's figures.
var selectedOrder = []string{"q01", "q09", "q23", "q28", "q30", "q65", "q88", "q95"}

func (w *WorkloadReport) selected() []QueryReport {
	byName := map[string]QueryReport{}
	for _, q := range w.Queries {
		byName[q.Name] = q
	}
	var out []QueryReport
	for _, name := range selectedOrder {
		if q, ok := byName[name]; ok {
			out = append(out, q)
		}
	}
	return out
}

// WriteFigure1 renders the Figure 1 analogue: latency improvement for the
// selected queries, as speedup factor and percentage.
func (w *WorkloadReport) WriteFigure1(out io.Writer) {
	fmt.Fprintln(out, "Figure 1 — Latency improvement for selected queries")
	fmt.Fprintln(out, "query | baseline | fused    | speedup | improvement | rules")
	fmt.Fprintln(out, "------+----------+----------+---------+-------------+------")
	for _, q := range w.selected() {
		fmt.Fprintf(out, "%-5s | %8s | %8s | %6.2fx | %10.1f%% | %s\n",
			q.Name, fmtDur(q.BaselineLatency), fmtDur(q.FusedLatency),
			q.Speedup(), 100*q.LatencyImprovement(), strings.Join(dedupe(q.RulesFired), ","))
	}
}

// WriteFigure2 renders the Figure 2 analogue: fraction of input data read
// compared to the baseline for the selected queries.
func (w *WorkloadReport) WriteFigure2(out io.Writer) {
	fmt.Fprintln(out, "Figure 2 — Fraction of data read vs baseline for selected queries")
	fmt.Fprintln(out, "query | baseline bytes | fused bytes | fraction | reduction")
	fmt.Fprintln(out, "------+----------------+-------------+----------+----------")
	for _, q := range w.selected() {
		fmt.Fprintf(out, "%-5s | %14d | %11d | %7.1f%% | %8.1f%%\n",
			q.Name, q.BaselineBytes, q.FusedBytes,
			100*q.BytesFraction(), 100*(1-q.BytesFraction()))
	}
}

// WriteSummary renders the §V whole-workload aggregates.
func (w *WorkloadReport) WriteSummary(out io.Writer) {
	fmt.Fprintf(out, "Workload summary (scale=%.2f, %d queries, %d with changed plans)\n",
		w.Scale, len(w.Queries), w.changedCount())
	fmt.Fprintf(out, "  overall latency improvement:        %5.1f%%  (paper: 14%%)\n", 100*w.Overall())
	fmt.Fprintf(out, "  mean improvement on changed plans:  %5.1f%%  (paper: ~60%%)\n", 100*w.AffectedMean())
	fmt.Fprintf(out, "  maximum speedup:                    %5.2fx  (paper: >6x)\n", w.MaxSpeedup())
}

// WriteCPUAndMemory renders the auxiliary §V.A/§V.C observations: CPU
// savings for the window-rewrite queries and hash-memory reduction for Q23.
func (w *WorkloadReport) WriteCPUAndMemory(out io.Writer) {
	fmt.Fprintln(out, "Auxiliary metrics (CPU proxy = rows processed; memory proxy = hash-state rows)")
	fmt.Fprintln(out, "query | cpu reduction | hash-rows baseline | hash-rows fused")
	fmt.Fprintln(out, "------+---------------+--------------------+----------------")
	for _, q := range w.selected() {
		fmt.Fprintf(out, "%-5s | %12.1f%% | %18d | %15d\n",
			q.Name, 100*q.CPUReduction(), q.BaselineHash, q.FusedHash)
	}
}

func (w *WorkloadReport) changedCount() int {
	n := 0
	for _, q := range w.Queries {
		if q.PlanChanged {
			n++
		}
	}
	return n
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

func dedupe(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
