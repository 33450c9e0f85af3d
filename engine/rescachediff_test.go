package engine

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/rescache"
	"repro/internal/storage"
	"repro/internal/testgen"
	"repro/internal/tpcds"
)

// This file is the result-cache differential harness: the same workloads
// the shared-execution differential uses are replayed against an engine
// with ResultCacheBytes set, and every run — cold, first warm (first sight,
// uncaptured), second warm (miss+offer), third warm (hit), and post-Append
// warm (invalidated, recomputed, then hit again) — must return
// byte-identical rows with exact BytesScanned and RowsProcessed. Only Metrics.ResultCache (and the physical decode work)
// may differ between a cold and a cached run.

// rescacheTestStore builds a private testgen store. The shared
// diffTestStore cannot be used here: the cache lives on the store (first
// caller fixes its size) and the append-invalidation passes mutate data,
// either of which would leak state into the other differential suites.
func rescacheTestStore(t testing.TB) *storage.Store {
	st, err := testgen.NewStore(20260805, 700)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runResultCacheDifferential compares one generated query set cold-vs-warm
// across the mask configuration matrix, appends rows mid-pass to prove
// invalidation, and returns how many runs were actually served from cache
// so corpus-level callers can reject a vacuous comparison.
func runResultCacheDifferential(t *testing.T, seed int64) int64 {
	st := rescacheTestStore(t)
	limit := spillTestLimit(defaultSpillTestLimit)
	queries := testgen.ShareSet(seed, 5)
	var hits int64
	for _, cfg := range maskConfigs {
		base := Config{Parallelism: cfg.parallelism, BatchSize: cfg.batchSize}
		var spillDir string
		if cfg.spill {
			spillDir = t.TempDir()
			base.MemoryLimitBytes = limit
			base.SpillDir = spillDir
		}
		cold := OpenWithStore(st, base)
		warmCfg := base
		warmCfg.ResultCacheBytes = 1 << 20
		warm := OpenWithStore(st, warmCfg)

		check := func(phase string) {
			for i, q := range queries {
				ref, err := cold.Query(q)
				if err != nil {
					t.Fatalf("seed %d %s %s cold query %d failed: %v\n%s", seed, cfg.name, phase, i, err, q)
				}
				if ref.Metrics.ResultCache != (exec.ResultCacheMetrics{}) {
					t.Fatalf("seed %d %s %s: cache-off engine stamped ResultCache %+v", seed, cfg.name, phase, ref.Metrics.ResultCache)
				}
				want := exactRows(ref.Rows)
				for run := 0; run < 3; run++ {
					res, err := warm.Query(q)
					if err != nil {
						t.Fatalf("seed %d %s %s warm query %d run %d failed: %v\n%s", seed, cfg.name, phase, i, run, err, q)
					}
					if got := exactRows(res.Rows); got != want {
						t.Fatalf("seed %d %s %s query %d run %d: rows differ from cold run\nquery:\n%s\ngot:\n%s\nwant:\n%s\nplan:\n%s",
							seed, cfg.name, phase, i, run, q, got, want, res.Plan)
					}
					if got := res.Metrics.Storage.BytesScanned; got != ref.Metrics.Storage.BytesScanned {
						t.Fatalf("seed %d %s %s query %d run %d: BytesScanned %d != cold %d\n%s",
							seed, cfg.name, phase, i, run, got, ref.Metrics.Storage.BytesScanned, q)
					}
					if got := res.Metrics.RowsProcessed; got != ref.Metrics.RowsProcessed {
						t.Fatalf("seed %d %s %s query %d run %d: RowsProcessed %d != cold %d\n%s",
							seed, cfg.name, phase, i, run, got, ref.Metrics.RowsProcessed, q)
					}
					if cfg.spill && res.Metrics.PeakMemoryBytes > limit {
						t.Fatalf("seed %d %s %s query %d run %d: peak tracked memory %d exceeds limit %d\n%s",
							seed, cfg.name, phase, i, run, res.Metrics.PeakMemoryBytes, limit, q)
					}
					hits += res.Metrics.ResultCache.Hits
				}
			}
		}
		check("pre-append")
		// The append invalidates every fact-table entry; warm runs must
		// recompute against the new data, stay byte-identical to a fresh
		// cold run, and re-admit so a later post-append run can hit.
		if err := st.Append("fact", [][]Value{
			{Int(3), Int(7), Int(55), Float(9.25), String("alpha"), Int(2)},
			{Int(0), Int(11), Int(96), Float(123.5), String("delta"), Int(5)},
		}); err != nil {
			t.Fatalf("seed %d %s: append: %v", seed, cfg.name, err)
		}
		check("post-append")
		if cfg.spill {
			if ents, err := os.ReadDir(spillDir); err != nil {
				t.Fatal(err)
			} else if len(ents) != 0 {
				t.Fatalf("seed %d %s: %d spill files leaked", seed, cfg.name, len(ents))
			}
		}
	}
	return hits
}

// TestDifferentialResultCache is the bounded cold-vs-warm corpus wired into
// plain `go test`: a fixed testgen seed range, every seed's query set run
// repeatedly against a caching engine and compared run-by-run against a
// cache-off engine, with an Append interleaved mid-pass. The corpus as a
// whole must serve runs from cache somewhere, or the comparison is vacuous.
func TestDifferentialResultCache(t *testing.T) {
	const corpus = 20
	var hits int64
	for seed := int64(0); seed < corpus; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			hits += runResultCacheDifferential(t, seed)
		})
	}
	if !t.Failed() && hits == 0 {
		t.Fatal("no runs served from the result cache across the corpus — the cache is not engaging")
	}
}

// FuzzDifferentialResultCache extends the cold-vs-warm differential to
// `go test -fuzz`: the fuzzer mutates the generator seed, searching for a
// query set where a cached replay, the as-if-solo metric re-charge or the
// append-invalidation path diverges from a cold run.
func FuzzDifferentialResultCache(f *testing.F) {
	for _, seed := range []int64{0, 1, 17, 42, 20220513, -9} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runResultCacheDifferential(t, seed)
	})
}

// firstSight runs q once on an engine whose cache has never seen it and
// checks that the miss was built uncaptured: one deferred miss, nothing
// offered, nothing admitted.
func firstSight(t *testing.T, eng *Engine, st *storage.Store, q string) *Result {
	t.Helper()
	res, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rc := res.Metrics.ResultCache; rc.Misses != 1 || rc.Deferred != 1 || rc.AdmissionRejects != 0 {
		t.Fatalf("first sight: ResultCache = %+v, want one deferred miss", rc)
	}
	if n, _ := rescache.For(st, eng.config.ResultCacheBytes).Stats(); n != 0 {
		t.Fatalf("first sight admitted %d entries", n)
	}
	return res
}

// TestResultCacheAppendInvalidation walks the full entry lifecycle on one
// deterministic query: first sight (uncaptured), miss+admit, hit,
// invalidation by an append to the scanned table (with the recomputed
// result provably different), re-admit on the first miss after the append,
// hit again — and an append to an unrelated table leaving the entry valid.
func TestResultCacheAppendInvalidation(t *testing.T) {
	st := rescacheTestStore(t)
	cold := OpenWithStore(st, Config{})
	warm := OpenWithStore(st, Config{ResultCacheBytes: 1 << 20})
	const q = "SELECT COUNT(*) AS c, SUM(f_qty) AS s, MIN(f_k2) AS m FROM fact WHERE f_qty > 10"

	query := func(eng *Engine) *Result {
		t.Helper()
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	firstSight(t, warm, st, q)
	r1 := query(warm)
	if rc := r1.Metrics.ResultCache; rc.Hits != 0 || rc.Misses == 0 {
		t.Fatalf("first run ResultCache = %+v, want a pure miss", rc)
	}
	preAppend := exactRows(r1.Rows)
	if got := exactRows(query(cold).Rows); got != preAppend {
		t.Fatalf("warm miss diverged from cold:\n%s\nvs\n%s", preAppend, got)
	}
	r2 := query(warm)
	if rc := r2.Metrics.ResultCache; rc.Hits != 1 || rc.ServedBytes == 0 {
		t.Fatalf("repeat run ResultCache = %+v, want a hit", rc)
	}
	if got := exactRows(r2.Rows); got != preAppend {
		t.Fatalf("cached rows differ:\n%s\nvs\n%s", got, preAppend)
	}
	if r2.Metrics.Storage.BytesScanned != r1.Metrics.Storage.BytesScanned ||
		r2.Metrics.RowsProcessed != r1.Metrics.RowsProcessed {
		t.Fatalf("hit re-charged %d/%d, miss charged %d/%d",
			r2.Metrics.Storage.BytesScanned, r2.Metrics.RowsProcessed,
			r1.Metrics.Storage.BytesScanned, r1.Metrics.RowsProcessed)
	}

	// Append through the engine: the row passes the WHERE, so the cached
	// aggregate is provably stale and the recomputation provably fresh. The
	// fingerprint was captured before, so its first miss after the append
	// recaptures: no second warm-up.
	if err := warm.Append("fact", [][]Value{
		{Int(1), Int(4), Int(77), Float(3.25), String("beta"), Int(1)},
	}); err != nil {
		t.Fatal(err)
	}
	r3 := query(warm)
	if rc := r3.Metrics.ResultCache; rc.Hits != 0 {
		t.Fatalf("post-append run ResultCache = %+v, want invalidation (no hit)", rc)
	}
	postAppend := exactRows(r3.Rows)
	if postAppend == preAppend {
		t.Fatal("append did not change the aggregate — invalidation test is vacuous")
	}
	if got := exactRows(query(cold).Rows); got != postAppend {
		t.Fatalf("post-append warm run diverged from cold:\n%s\nvs\n%s", postAppend, got)
	}
	r4 := query(warm)
	if rc := r4.Metrics.ResultCache; rc.Hits != 1 {
		t.Fatalf("post-append repeat ResultCache = %+v, want re-admitted hit", rc)
	}
	if got := exactRows(r4.Rows); got != postAppend {
		t.Fatalf("re-admitted rows differ:\n%s\nvs\n%s", got, postAppend)
	}

	// An append to a table the entry never scanned leaves it valid.
	if err := warm.Append("dim", [][]Value{{Int(42), String("nowhere"), Int(1)}}); err != nil {
		t.Fatal(err)
	}
	r5 := query(warm)
	if rc := r5.Metrics.ResultCache; rc.Hits != 1 {
		t.Fatalf("append to dim invalidated a fact entry: ResultCache = %+v", rc)
	}
	if got := exactRows(r5.Rows); got != postAppend {
		t.Fatalf("entry surviving unrelated append serves wrong rows:\n%s\nvs\n%s", got, postAppend)
	}
}

// TestResultCacheHitInsideFusedBatch primes the cache (a first sight, then
// the capturing run), then submits three
// copies of the query concurrently to a ShareExec engine: every batch
// member must be served from cache before grouping, with rows and logical
// metrics identical to a solo run and both the ResultCache and the
// as-if-solo SharedExec story stamped.
func TestResultCacheHitInsideFusedBatch(t *testing.T) {
	st := rescacheTestStore(t)
	const q = "SELECT COUNT(*) AS c, SUM(f_qty) AS s FROM fact WHERE f_qty > 10"
	solo := OpenWithStore(st, Config{})
	soloRes, err := solo.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := exactRows(soloRes.Rows)

	eng := OpenWithStore(st, Config{
		ShareExec:        true,
		AdmissionWindow:  sharedExecWindow,
		MaxFusedQueries:  3,
		ResultCacheBytes: 1 << 20,
	})
	if got := exactRows(firstSight(t, eng, st, q).Rows); got != want {
		t.Fatalf("first-sight run rows differ from solo:\n%s\nvs\n%s", got, want)
	}
	prime, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if prime.Metrics.ResultCache.Hits != 0 {
		t.Fatalf("priming run hit an empty cache: %+v", prime.Metrics.ResultCache)
	}
	if got := exactRows(prime.Rows); got != want {
		t.Fatalf("priming run rows differ from solo:\n%s\nvs\n%s", got, want)
	}

	results, errs := submitConcurrently(eng, []string{q, q, q})
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("client %d failed: %v", i, errs[i])
		}
		if got := exactRows(res.Rows); got != want {
			t.Fatalf("client %d: rows differ from solo run\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		rc := res.Metrics.ResultCache
		if rc.Hits != 1 || rc.ServedBytes == 0 {
			t.Fatalf("client %d: ResultCache = %+v, want the batch member served from cache", i, rc)
		}
		if got := res.Metrics.Storage.BytesScanned; got != soloRes.Metrics.Storage.BytesScanned {
			t.Fatalf("client %d: BytesScanned %d != solo %d", i, got, soloRes.Metrics.Storage.BytesScanned)
		}
		if got := res.Metrics.RowsProcessed; got != soloRes.Metrics.RowsProcessed {
			t.Fatalf("client %d: RowsProcessed %d != solo %d", i, got, soloRes.Metrics.RowsProcessed)
		}
		sh := res.Metrics.SharedExec
		if sh.BatchedQueries != 3 || sh.WindowWaits != 1 {
			t.Fatalf("client %d: SharedExec = %+v, want the 3-member batch story", i, sh)
		}
	}
}

// TestResultCacheFusedFirstSight: members of a fused batch ask the same
// capture policy as solo runs. A batch of first sights copies and offers
// nothing; the next batch captures every member; the third is served from
// cache. Rows match solo runs throughout.
func TestResultCacheFusedFirstSight(t *testing.T) {
	st := rescacheTestStore(t)
	queries := []string{
		"SELECT COUNT(*) AS c, SUM(f_qty) AS s FROM fact WHERE f_qty > 10",
		"SELECT COUNT(*) AS c, SUM(f_qty) AS s FROM fact WHERE f_qty > 20",
		"SELECT COUNT(*) AS c, SUM(f_qty) AS s FROM fact WHERE f_qty > 30",
	}
	solo := OpenWithStore(st, Config{})
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := solo.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = exactRows(res.Rows)
	}
	eng := OpenWithStore(st, Config{
		ShareExec:        true,
		AdmissionWindow:  sharedExecWindow,
		MaxFusedQueries:  len(queries),
		ResultCacheBytes: 1 << 20,
	})
	cache := rescache.For(st, 1<<20)
	for round, wantRC := range []exec.ResultCacheMetrics{
		{Misses: 1, Deferred: 1},
		{Misses: 1},
		{Hits: 1},
	} {
		results, errs := submitConcurrently(eng, queries)
		for i, res := range results {
			if errs[i] != nil {
				t.Fatalf("round %d client %d: %v", round, i, errs[i])
			}
			if got := exactRows(res.Rows); got != want[i] {
				t.Fatalf("round %d client %d: rows differ from solo\ngot:\n%s\nwant:\n%s", round, i, got, want[i])
			}
			rc := res.Metrics.ResultCache
			rc.ServedBytes, rc.EvictedBytes = 0, 0
			if rc != wantRC {
				t.Fatalf("round %d client %d: ResultCache = %+v, want %+v", round, i, res.Metrics.ResultCache, wantRC)
			}
			if round < 2 && res.Metrics.SharedExec.FusedPlans != int64(len(queries)) {
				t.Fatalf("round %d client %d: SharedExec = %+v, want one fused plan for the batch", round, i, res.Metrics.SharedExec)
			}
		}
		if n, _ := cache.Stats(); round == 0 && n != 0 {
			t.Fatalf("a batch of first sights admitted %d entries", n)
		}
	}
}

// TestResultCacheAppendQueryRace drives concurrent appends against cached
// and uncached queries on one engine with scan sharing on — the -race soak
// for the Append path against all three caches (chunk LRU, ShapeCache,
// rescache). Correctness here is "no error, no race, and the final count
// sees every append"; per-query results legitimately land before or after
// any given racing append.
func TestResultCacheAppendQueryRace(t *testing.T) {
	st := rescacheTestStore(t)
	eng := OpenWithStore(st, Config{
		Parallelism:      4,
		ShareScans:       true,
		ResultCacheBytes: 1 << 20,
	})
	queries := []string{
		"SELECT COUNT(*) AS c, SUM(f_qty) AS s FROM fact WHERE f_qty > 10",
		"SELECT f_k1, f_qty FROM fact WHERE f_qty > 90",
		"SELECT f_tag FROM fact WHERE f_k1 = 0",
		"SELECT d_name, d_grp FROM dim WHERE d_grp >= 1",
	}
	const appends, rowsPerAppend, readers, reads = 40, 5, 4, 30
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			rows := make([][]Value, rowsPerAppend)
			for j := range rows {
				rows[j] = []Value{
					Int(int64(i % 8)), Int(int64(j)), Int(int64(20 + i)),
					Float(float64(i) + 0.5), String("soak"), Int(int64(i % 6)),
				}
			}
			if err := eng.Append("fact", rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if _, err := eng.Query(queries[(r+i)%len(queries)]); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	res, err := eng.Query("SELECT COUNT(*) AS c FROM fact")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0][0].I, int64(700+appends*rowsPerAppend); got != want {
		t.Fatalf("final count = %d, want %d (lost appends)", got, want)
	}
}

// TestDifferentialResultCacheTPCDS runs every TPC-DS query three times
// (sight, capture, replay) against a caching engine and compares each run against a serial cache-off
// reference: whatever sub-plans the cache admits, every replay must be
// byte-identical with exact logical metrics, and the corpus as a whole must
// produce hits.
func TestDifferentialResultCacheTPCDS(t *testing.T) {
	st, err := tpcds.NewLoadedStore(0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	ref := OpenWithStore(st, Config{Parallelism: 1, BatchSize: 1})
	warm := OpenWithStore(st, Config{ResultCacheBytes: 8 << 20})
	var hits int64
	for _, q := range tpcds.Queries() {
		refRes, err := ref.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s reference failed: %v", q.Name, err)
		}
		want := exactRows(refRes.Rows)
		for run := 0; run < 3; run++ {
			res, err := warm.Query(q.SQL)
			if err != nil {
				t.Fatalf("%s warm run %d failed: %v", q.Name, run, err)
			}
			if got := exactRows(res.Rows); got != want {
				t.Fatalf("%s run %d: rows differ from reference\ngot:\n%s\nwant:\n%s", q.Name, run, got, want)
			}
			if got := res.Metrics.Storage.BytesScanned; got != refRes.Metrics.Storage.BytesScanned {
				t.Fatalf("%s run %d: BytesScanned %d != %d", q.Name, run, got, refRes.Metrics.Storage.BytesScanned)
			}
			if got := res.Metrics.RowsProcessed; got != refRes.Metrics.RowsProcessed {
				t.Fatalf("%s run %d: RowsProcessed %d != %d", q.Name, run, got, refRes.Metrics.RowsProcessed)
			}
			hits += res.Metrics.ResultCache.Hits
		}
	}
	if hits == 0 {
		t.Fatal("no TPC-DS sub-plans served from cache across the corpus")
	}
}
