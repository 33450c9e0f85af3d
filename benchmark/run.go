package benchmark

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/rescache"
	"repro/internal/scanshare"
	"repro/internal/storage"
	"repro/internal/tpcds"
)

// Options selects one run.
type Options struct {
	Workload string
	// Seed makes the traffic; the same seed gives the same statements.
	Seed int64
	// Seconds is the length of the measured section.
	Seconds float64
	// Trace selects the traced run (per-layer metrics) instead of the
	// untraced one (end-to-end metrics).
	Trace bool
	// TracePath, when set, is where the traced run writes its spans.
	TracePath string
	// Scale is the TPC-DS scale; 0 means DefaultScale. Committed numbers are
	// taken at the default only.
	Scale float64
	// BurstPeriod overrides overlap_burst's period; 0 means the frozen one.
	BurstPeriod time.Duration
}

// Result is one run's outcome. Metrics holds every end-to-end metric
// (untraced) or every per-layer metric (traced); Samples holds, per timing
// metric, how many samples it summarises.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"`
	Env       Env               `json:"env"`
}

// Env is the environment a result was taken in.
type Env struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Scale       float64 `json:"scale"`
	Connections int     `json:"connections"`
}

func environment(scale float64) Env {
	e := Env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Scale: scale, Connections: connections()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// ErrInvalid marks a run whose load generator could not keep its schedule;
// its numbers are not reported.
var ErrInvalid = errors.New("benchmark: invalid run")

const (
	setupReps  = 3
	warmupFrac = 0.05
	codaBatchs = 64
)

// Run performs one run of one workload.
func Run(o Options) (*Result, error) {
	w, err := workloadByName(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("benchmark: -seconds must be positive, got %v", o.Seconds)
	}
	if o.Scale == 0 {
		o.Scale = DefaultScale
	}
	if o.BurstPeriod == 0 {
		o.BurstPeriod = burstPeriod
	}
	res := &Result{Workload: w.name, Seed: o.Seed, Traced: o.Trace, Env: environment(o.Scale),
		Metrics: map[string]Metric{}, Samples: map[string]int{}}
	if o.Trace {
		err = runTraced(w, o, res)
	} else {
		err = runUntraced(w, o, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func wireConns(s *stack) []conn {
	conns := make([]conn, len(s.conns))
	for i, c := range s.conns {
		conns[i] = wireConn{c}
	}
	return conns
}

// checkOpenLoop rejects an open-loop phase whose generator ran late or
// whose backlog was growing when the window closed.
func checkOpenLoop(w *workload, p *phase) error {
	if !w.open {
		return nil
	}
	if late := ratio(float64(p.late), float64(p.bursts)); late > 0.05 {
		return fmt.Errorf("%w: %s sent %.0f%% of its bursts late", ErrInvalid, w.name, 100*late)
	}
	if p.backlog > 1 {
		return fmt.Errorf("%w: %s had %d bursts unanswered when the window closed", ErrInvalid, w.name, p.backlog)
	}
	return nil
}

// finish ends a run's traffic the same way on every workload: a workload
// without writes of its own appends codaBatchs batches with nothing else in
// flight (so that every workload reports the ingest metrics), and then the
// five panels are refreshed once with the system quiesced, to be compared
// with the reference over the final data.
func finish(ctx context.Context, s *session) (coda, final []obs) {
	if s.w.ingestEvery == 0 {
		runtime.GC() // the measured section's garbage is not the coda's to collect
		for i := 0; i < codaBatchs; i++ {
			coda = append(coda, s.ingestOne(ctx, s.conns[0]))
		}
	}
	for i, sql := range panelSet(s.seed, s.data) {
		final = append(final, s.one(ctx, s.conns[0], stmtID(s.w.name, "final", i), sql, time.Now()))
	}
	return coda, final
}

// tally counts attempts and failures and verifies the answers.
func tally(res *Result, refStore *storage.Store, s *session, queries, ingests []obs) error {
	res.Attempted = len(queries) + len(ingests)
	for _, o := range append(queries[:len(queries):len(queries)], ingests...) {
		if o.err != nil {
			res.Failed++
		}
	}
	wrong, err := verify(refStore, s.seed, s.data, queries, int(s.issued.Load()))
	res.Failed += wrong
	return err
}

func latencies(os []obs) []time.Duration {
	out := make([]time.Duration, 0, len(os))
	for _, o := range os {
		if o.err == nil {
			out = append(out, o.latency())
		}
	}
	return out
}

func runUntraced(w *workload, o Options, res *Result) error {
	// Set up several times and report the median; the first store, which no
	// statement of the run touches, becomes the reference's.
	var (
		setups   []time.Duration
		refStore *storage.Store
		sut      *stack
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := newStack(o.Scale)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		if i == 0 {
			refStore = s.store
		}
		if i < setupReps-1 {
			s.close()
		} else {
			sut = s
		}
	}
	defer sut.close()

	ctx := context.Background()
	sess, err := newSession(w, o.Seed, inspect(sut.store), wireConns(sut), o.BurstPeriod)
	if err != nil {
		return err
	}
	window := seconds(o.Seconds)
	sess.run(ctx, time.Duration(warmupFrac*float64(window)), false)

	debug.FreeOSMemory() // give set-up's garbage back before resident memory is watched
	rss := startRSSSampler()
	timed := sess.run(ctx, window, true)
	peak := rss.peakBytes()
	if err := checkOpenLoop(w, timed); err != nil {
		return err
	}

	coda, final := finish(ctx, sess)
	ingests := append(timed.ingests, coda...)
	if err := tally(res, refStore, sess, append(timed.queries, final...), ingests); err != nil {
		return err
	}

	n := float64(len(timed.queries))
	lat := latencies(timed.queries)
	ing := latencies(ingests)
	qps, cpuMs, groups := steady(timed.marks)
	var scanned int64
	for _, q := range timed.queries {
		scanned += q.scanned
	}
	set := res.setter(EndToEnd)
	set("setup_s", percentile(setups, 0.5).Seconds(), len(setups))
	set("qps", qps, groups)
	set("lat_p50_ms", ms(middle(lat)), len(lat))
	set("lat_p95_ms", ms(percentile(lat, 0.95)), len(lat))
	set("refresh_p50_ms", ms(middle(timed.rounds)), len(timed.rounds))
	set("ingest_p50_ms", ms(middle(ing)), len(ing))
	set("ingest_krows_per_s", ratio(float64(ingestRows)/1000, middle(ing).Seconds()), len(ing))
	set("cpu_ms_per_query", cpuMs, groups)
	set("peak_rss_mb", float64(peak)/(1<<20), 1)
	set("bytes_scanned_kb_per_query", float64(scanned)/1024/n, len(timed.queries))
	return nil
}

func runTraced(w *workload, o Options, res *Result) error {
	sut, err := newStack(o.Scale)
	if err != nil {
		return err
	}
	defer sut.close()
	ctx := context.Background()
	data := inspect(sut.store)
	sess, err := newSession(w, o.Seed, data, wireConns(sut), o.BurstPeriod)
	if err != nil {
		return err
	}
	window := seconds(o.Seconds)
	sess.run(ctx, time.Duration(warmupFrac*float64(window)), false)

	// Half the window over the wire, as the untraced run does it, then the
	// same schedule continues in process (T1) where the engine's whole
	// result and the service's counters are visible.
	wire := sess.run(ctx, window/2, true)
	if err := checkOpenLoop(w, wire); err != nil {
		return err
	}
	tr := newTracer()
	local := make([]conn, len(sut.conns))
	for i := range local {
		local[i] = localConn{srv: sut.srv, tenant: tenantName(i), tr: tr}
	}
	sess.conns = local
	before := sut.srv.Stats()
	t1 := sess.run(ctx, window/2, true)
	after := sut.srv.Stats()
	if err := checkOpenLoop(w, t1); err != nil {
		return err
	}
	cacheResident := scanshare.For(sut.store, 0).CacheBytes()
	_, resultResident := rescache.For(sut.store, stackConfig().ResultCacheBytes).Stats()

	var distinct []string
	seen := map[string]bool{}
	for _, q := range t1.queries {
		if !seen[q.sql] {
			seen[q.sql] = true
			distinct = append(distinct, q.sql)
		}
	}
	iso, err := isolate(tr, sut.store, w, o.Seed, data, distinct, window/5)
	if err != nil {
		return err
	}

	coda, final := finish(ctx, sess)
	queries := append(append(wire.queries, t1.queries...), final...)
	ingests := append(append(wire.ingests, t1.ingests...), coda...)
	refStore, err := tpcds.NewLoadedStore(o.Scale, dataSeed)
	if err != nil {
		return err
	}
	if err := tally(res, refStore, sess, queries, ingests); err != nil {
		return err
	}
	if o.TracePath != "" {
		if err := tr.writeJSONL(o.TracePath); err != nil {
			return err
		}
	}

	set := res.setter(PerLayer)
	isolationMetrics(set, tr, iso)
	loadMetrics(set, t1.queries)
	var encBytes, encRows int64
	for _, table := range factTables {
		td := sut.store.Data(table)
		encBytes += td.TotalBytes()
		encRows += td.NumRows()
	}
	set("storage.encoded_bytes_per_row", ratio(float64(encBytes), float64(encRows)), len(factTables))
	set("scanshare.cache_resident_mb", float64(cacheResident)/(1<<20), 1)
	set("rescache.resident_mb", float64(resultResident)/(1<<20), 1)

	submits := tr.durations("service.submit")
	submitP50 := middle(submits)
	set("service.submit_ms_p50", ms(submitP50), len(submits))
	var waits []time.Duration
	for tenant, ws := range after.QueueWaits {
		waits = append(waits, ws[len(before.QueueWaits[tenant]):]...)
	}
	set("service.queue_wait_ms_p50", ms(middle(waits)), len(waits))
	set("service.queue_wait_ms_p95", ms(percentile(waits, 0.95)), len(waits))
	set("service.rejected", float64(after.Rejected-before.Rejected), 1)

	wireLat := latencies(wire.queries)
	set("wire.rtt_overhead_ms_p50", ms(middle(wireLat)-submitP50), len(wireLat))
	set("loadgen.late_frac", ratio(float64(wire.late), float64(wire.bursts)), wire.bursts)
	set("loadgen.backlog_end", float64(wire.backlog), 1)
	set("trace.wall_ratio", ratio(float64(middle(t1.rounds)), float64(middle(wire.rounds))), len(t1.rounds))
	return nil
}

// setter returns the function a run reports its metrics through: it takes
// the unit from the metric's definition, so a name that BENCHMARK.json does
// not list is never emitted.
func (r *Result) setter(defs []MetricDef) func(name string, v float64, samples int) {
	return func(name string, v float64, samples int) {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = Metric{Value: v, Unit: d.Unit}
				r.Samples[name] = samples
			}
		}
	}
}

// isolationMetrics reports T2: each layer's own time per statement from the
// spans, and the exact counts of the non-sharing engine.
func isolationMetrics(set func(string, float64, int), tr *tracer, iso *isolation) {
	n := int(iso.statements)
	perStatement := func(metric string, count int64) { set(metric, float64(count)/float64(n), n) }
	spanMs := func(span string) float64 { return ms(total(tr.durations(span))) }
	set("sql.parse_ms_per_query", spanMs("sql.parse")/float64(n), n)
	set("binder.bind_ms_per_query", spanMs("binder.bind")/float64(n), n)
	set("optimizer.optimize_ms_per_query", spanMs("optimizer.optimize")/float64(n), n)
	set("exec.run_ms_per_query", spanMs("exec.run")/float64(n), n)
	perStatement("optimizer.rules_fired_per_query", iso.rulesFired)
	perStatement("exec.rows_processed_per_query", iso.rowsProcessed)
	perStatement("exec.hash_rows_per_query", iso.hashRows)
	perStatement("exec.pipeline_batches_per_query", iso.pipelineBatches)
	perStatement("exec.fused_pipelines_per_query", iso.fusedPipelines)
	perStatement("exec.mask_prefix_hits_per_query", iso.maskPrefixHits)
	krows := float64(iso.rows) / 1000
	set("wire.encode_ms_per_krow", ratio(spanMs("wire.encode"), krows), n)
	set("wire.decode_ms_per_krow", ratio(spanMs("wire.decode"), krows), n)
	set("wire.bytes_per_row", ratio(float64(iso.wireBytes), float64(iso.rows)), n)
	set("storage.decode_ms_per_mb", ratio(spanMs("storage.decode"), float64(iso.decodedBytes)/1e6), len(factTables))
	set("storage.append_ms_per_krow", ratio(spanMs("storage.append"), float64(iso.appendedRows)/1000), len(tr.durations("storage.append")))
}

// loadMetrics reports T1: what the engine's own counters said about each
// statement under the real load.
func loadMetrics(set func(string, float64, int), queries []obs) {
	var (
		decoded, chunksPruned, prunedBytes, bloom    int64
		scanned, chunkHits, chunkReqs                int64
		hits, misses, rejects, served, evicted       int64
		batched, fused, fanIn, windowed, windowWaits int64
		peakTracked, spilled                         int64
	)
	for _, q := range queries {
		if q.metrics == nil {
			continue
		}
		m := q.metrics
		decoded += m.Share.BytesDecoded
		chunksPruned += m.Skip.ChunksPruned
		prunedBytes += m.Skip.PrunedBytes
		bloom += m.Skip.BloomPruned
		scanned += m.Storage.BytesScanned
		h := m.Share.SharedHits + m.Share.CacheHits + m.Share.StreamHits
		chunkHits += h
		chunkReqs += h + m.Share.ChunksDecoded
		hits += m.ResultCache.Hits
		misses += m.ResultCache.Misses
		rejects += m.ResultCache.AdmissionRejects
		served += m.ResultCache.ServedBytes
		evicted += m.ResultCache.EvictedBytes
		if m.SharedExec.BatchedQueries > 1 {
			batched++
		}
		if m.SharedExec.FusedPlans > 1 {
			fused++
		}
		if m.SharedExec.FusedPlans > 0 {
			windowed++
			fanIn += m.SharedExec.FusedPlans
		}
		windowWaits += m.SharedExec.WindowWaits
		peakTracked = max(peakTracked, m.PeakMemoryBytes)
		spilled += m.SpilledBytes
	}
	n := len(queries)
	perQuery := func(metric string, v float64) { set(metric, v/float64(n), n) }
	perQuery("storage.bytes_decoded_kb_per_query", float64(decoded)/1024)
	perQuery("storage.chunks_pruned_per_query", float64(chunksPruned))
	perQuery("storage.bloom_pruned_per_query", float64(bloom))
	perQuery("rescache.served_kb_per_query", float64(served)/1024)
	perQuery("xfuse.batched_frac", float64(batched))
	perQuery("xfuse.fused_frac", float64(fused))
	perQuery("xfuse.window_waits_per_query", float64(windowWaits))
	set("storage.pruned_bytes_frac", ratio(float64(prunedBytes), float64(scanned)), n)
	set("scanshare.shared_hit_frac", ratio(float64(chunkHits), float64(chunkReqs)), n)
	set("rescache.hit_frac", ratio(float64(hits), float64(hits+misses)), n)
	set("rescache.admission_reject_frac", ratio(float64(rejects), float64(misses)), n)
	set("rescache.evicted_mb", float64(evicted)/(1<<20), n)
	set("xfuse.mean_fan_in", ratio(float64(fanIn), float64(windowed)), int(windowed))
	set("memctl.peak_tracked_mb_max", float64(peakTracked)/(1<<20), n)
	set("memctl.spilled_mb", float64(spilled)/(1<<20), n)
}

// metricNames returns the sorted names of a result's metrics.
func (r *Result) metricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
