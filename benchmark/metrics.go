package benchmark

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MetricDef describes one metric of BENCHMARK.json.
type MetricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the end-to-end regression bound (0 for per-layer metrics).
	Bound float64
}

// EndToEnd lists the end-to-end metrics; every workload reports all of them.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "refresh_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "ingest_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ingest_krows_per_s", Unit: "krows/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "bytes_scanned_kb_per_query", Unit: "KB", Better: "lower", Bound: 0.10},
}

// PerLayer lists the per-layer metrics of the traced run. A layer is a
// package of the repository; README.md says which end-to-end metric each
// should move, on which workload.
var PerLayer = []MetricDef{
	{Name: "sql.parse_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "binder.bind_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "optimizer.optimize_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "optimizer.rules_fired_per_query", Unit: "count", Better: "higher"},
	{Name: "exec.run_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "exec.rows_processed_per_query", Unit: "count", Better: "lower"},
	{Name: "exec.hash_rows_per_query", Unit: "count", Better: "lower"},
	{Name: "exec.pipeline_batches_per_query", Unit: "count", Better: "lower"},
	{Name: "exec.fused_pipelines_per_query", Unit: "count", Better: "higher"},
	{Name: "exec.mask_prefix_hits_per_query", Unit: "count", Better: "higher"},
	{Name: "storage.decode_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "storage.bytes_decoded_kb_per_query", Unit: "KB", Better: "lower"},
	{Name: "storage.chunks_pruned_per_query", Unit: "count", Better: "higher"},
	{Name: "storage.pruned_bytes_frac", Unit: "frac", Better: "higher"},
	{Name: "storage.bloom_pruned_per_query", Unit: "count", Better: "higher"},
	{Name: "storage.append_ms_per_krow", Unit: "ms/krow", Better: "lower"},
	{Name: "storage.encoded_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "scanshare.shared_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "scanshare.cache_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "rescache.hit_frac", Unit: "frac", Better: "higher"},
	{Name: "rescache.admission_reject_frac", Unit: "frac", Better: "lower"},
	{Name: "rescache.served_kb_per_query", Unit: "KB", Better: "higher"},
	{Name: "rescache.evicted_mb", Unit: "MB", Better: "lower"},
	{Name: "rescache.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "xfuse.batched_frac", Unit: "frac", Better: "higher"},
	{Name: "xfuse.fused_frac", Unit: "frac", Better: "higher"},
	{Name: "xfuse.mean_fan_in", Unit: "count", Better: "higher"},
	{Name: "xfuse.window_waits_per_query", Unit: "count", Better: "lower"},
	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "memctl.peak_tracked_mb_max", Unit: "MB", Better: "lower"},
	{Name: "memctl.spilled_mb", Unit: "MB", Better: "lower"},
	{Name: "wire.encode_ms_per_krow", Unit: "ms/krow", Better: "lower"},
	{Name: "wire.decode_ms_per_krow", Unit: "ms/krow", Better: "lower"},
	{Name: "wire.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "wire.rtt_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_frac", Unit: "frac", Better: "lower"},
	{Name: "loadgen.backlog_end", Unit: "count", Better: "lower"},
	{Name: "trace.wall_ratio", Unit: "ratio", Better: "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile estimates the p-quantile (0 < p <= 1) of ds as the mean of the
// order statistics within 2.5 percentage points of p, or 0 when ds is empty.
// On a large, smooth sample that is the usual percentile; on a small or
// lumpy one (40 templates whose costs have gaps between them) it moves
// smoothly where the nearest rank would jump from one lump to the next. It
// sorts ds in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	return rankMean(ds, p-0.025, p+0.025)
}

// middle estimates the centre of ds as the mean of its central half (the
// interquartile mean). Every "p50" is taken this way: burst and ingest times
// come in two modes (one batch or two, beside a query or not), and a median
// that falls between two modes jumps from one to the other between runs,
// where the interquartile mean moves with the share of each.
func middle(ds []time.Duration) time.Duration { return rankMean(ds, 0.25, 0.75) }

// rankMean is the mean of the order statistics of ds between quantiles lo
// and hi (nearest rank, both ends included). It sorts ds in place.
func rankMean(ds []time.Duration, lo, hi float64) time.Duration {
	n := len(ds)
	if n == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := max(int(math.Ceil(lo*float64(n)))-1, 0)
	j := min(int(math.Ceil(hi*float64(n)))-1, n-1)
	return total(ds[i:j+1]) / time.Duration(j-i+1)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// steady returns throughput (queries per second) and CPU per query (ms),
// each as the median over up to five consecutive groups of whole rounds of
// near-equal count, and the number of groups.
func steady(marks []mark) (qps, cpuMs float64, groups int) {
	n := len(marks) - 1
	groups = min(n, 5)
	var rates, cpus []float64
	for g := 0; g < groups; g++ {
		a, b := marks[g*n/groups], marks[(g+1)*n/groups]
		rates = append(rates, ratio(float64(b.done-a.done), b.at.Sub(a.at).Seconds()))
		cpus = append(cpus, ratio(ms(b.cpu-a.cpu), float64(b.done-a.done)))
	}
	return median(rates), median(cpus), groups
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes reads the process's resident set size from /proc.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// rssSampler records the peak resident set between start and stop, sampled
// every 10 ms. The process-wide high-water mark would instead report the
// data generator's garbage from set-up, which no workload can move.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: residentBytes()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if r := residentBytes(); r > s.peak {
					s.peak = r
				}
			}
		}
	}()
	return s
}

// peakBytes stops the sampler and returns the peak it saw.
func (s *rssSampler) peakBytes() int64 {
	close(s.stop)
	s.wg.Wait()
	if r := residentBytes(); r > s.peak {
		s.peak = r
	}
	return s.peak
}
