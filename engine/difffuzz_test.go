package engine

import (
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/testgen"
	"repro/internal/tpcds"
	"repro/internal/types"
)

// This file is the single-query differential matrix. The engine's result
// contract is that execution configuration is unobservable: parallelism,
// batch size, scan sharing, a memory limit that forces spilling, the
// mask-family kernel, the morsel-parallel drive of fused stages and data
// skipping may only change physical counters. Each row of diffMatrix names one such feature:
// a serial row-at-a-time reference (running the feature's in-tree twin when
// it has one), the execution shapes the candidate runs under, and the
// physical counter that proves which side ran. Every candidate must
// reproduce its reference's rows byte-for-byte in identical order with
// identical BytesScanned and RowsProcessed, with fusion off and on, over
// the testgen corpus, full TPC-DS and (for skipping) a clustered store.

var (
	diffOnce  sync.Once
	diffStore *storage.Store
	diffErr   error
)

func diffTestStore(t testing.TB) *storage.Store {
	diffOnce.Do(func() {
		diffStore, diffErr = testgen.NewStore(20260805, 700)
	})
	if diffErr != nil {
		t.Fatal(diffErr)
	}
	return diffStore
}

// diffShape is one execution configuration a candidate runs under.
type diffShape struct {
	name        string
	parallelism int
	batchSize   int
	share       bool // cross-query scan sharing over a 1 MiB chunk cache
	spill       bool // under the corpus's memory limit, with a fresh spill dir
}

var (
	// execShapes: full parallel+vectorized, and an adversarial small-batch
	// odd-shard-count configuration that stresses partition routing and
	// batch boundaries.
	execShapes = []diffShape{
		{name: "p8b1024", parallelism: 8, batchSize: 1024},
		{name: "p3b7", parallelism: 3, batchSize: 7},
	}
	// spillShapes cover the full execution matrix under a memory limit:
	// degenerate row-at-a-time, full parallel, adversarial odd shards, and
	// parallel with cross-query scan sharing.
	spillShapes = []diffShape{
		{name: "p1b1", parallelism: 1, batchSize: 1, spill: true},
		{name: "p8b1024", parallelism: 8, batchSize: 1024, spill: true},
		{name: "p3b7", parallelism: 3, batchSize: 7, spill: true},
		{name: "p4b256share", parallelism: 4, batchSize: 256, share: true, spill: true},
	}
	// maskConfigs are the shapes a candidate runs under against an in-tree
	// twin: degenerate row-at-a-time (the new kernels with one-row batches),
	// full parallel, adversarial odd shards, and parallel under a memory
	// limit so spilled state replays from disk. The cross-query
	// differentials (sharedexecdiff_test.go, rescachediff_test.go) reuse
	// them.
	maskConfigs = []diffShape{
		{name: "p1b1", parallelism: 1, batchSize: 1},
		{name: "p8b1024", parallelism: 8, batchSize: 1024},
		{name: "p3b7", parallelism: 3, batchSize: 7},
		{name: "p4b256spill", parallelism: 4, batchSize: 256, spill: true},
	}
)

// diffCounts totals what one fusion setting's candidate-side runs did, so a
// corpus can reject a comparison in which the feature under test never
// engaged.
type diffCounts struct {
	engaged        int64 // diffRow.engaged
	fused          int64 // Pipeline.FusedPipelines
	saved          int64 // Pipeline.MaterializedBatchesSaved
	spilledGroupBy int64 // MemOperators["groupby"].SpilledBytes
	spilledSort    int64 // MemOperators["sort"].SpilledBytes
	forced         int   // queries whose memory limit had to force a spill
	// exec.CompileStats deltas around the candidate runs: comparison-leaf
	// groups and leaves compiled, and leaf blocks the typed kernels handed
	// back to the generic loop.
	cmpGroups, cmpLeaves, cmpReruns int64
}

// diffRow is one feature's differential.
type diffRow struct {
	name   string
	seeds  int64 // testgen seeds 0..seeds-1 are the row's bounded corpus
	shapes []diffShape
	// twin switches a config to the feature's reference implementation; nil
	// when the reference is just the serial row-at-a-time configuration.
	twin func(*Config)
	// revalidate also runs the twin under every shape, so the baseline
	// itself is checked wherever the candidate is.
	revalidate bool
	// engaged reads the physical counter that tells the sides apart: zero
	// on every twin-side run, summed into diffCounts on the candidate side.
	engaged func(*Metrics) int64
	// nonVacuous fails the test when one fusion setting's totals over a
	// corpus ("testgen" or "tpcds") show the candidate path never ran.
	nonVacuous func(t *testing.T, corpus string, fusion bool, n diffCounts)
}

var (
	// The serial row-at-a-time reference pulls the same compiled stages the
	// candidate shapes push on morsel workers.
	execRow = diffRow{name: "exec", seeds: 140, shapes: execShapes,
		nonVacuous: func(t *testing.T, corpus string, _ bool, n diffCounts) {
			if n.fused == 0 {
				t.Fatalf("no fused pipelines — Filter/Project stacks are not compiling into stages")
			}
			if corpus == "tpcds" && n.saved == 0 {
				t.Fatalf("no materializations saved — fused projections are not engaging")
			}
		}}
	spillRow = diffRow{name: "spill", seeds: 60, shapes: spillShapes,
		nonVacuous: func(t *testing.T, corpus string, _ bool, n diffCounts) {
			// Both aggregation and sort must have shed bytes, and TPC-DS
			// must hold queries big enough to force a spill.
			if corpus == "tpcds" {
				if n.forced == 0 {
					t.Fatalf("no TPC-DS query qualified for a forced spill")
				}
			} else if n.spilledGroupBy == 0 || n.spilledSort == 0 {
				t.Fatalf("no aggregation or no sort spill across the corpus (%+v); limit too high", n)
			}
		}}
	maskRow = diffRow{name: "mask", seeds: 60, shapes: maskConfigs,
		twin:    func(c *Config) { c.naiveMasks = true },
		engaged: func(m *Metrics) int64 { return m.MaskPrefixHits },
		nonVacuous: func(t *testing.T, corpus string, fusion bool, n diffCounts) {
			// Shared-prefix factoring engages on the many-mask plans fusion
			// builds (Q09/Q28/Q88-class).
			if corpus == "tpcds" && fusion && n.engaged == 0 {
				t.Fatalf("no mask-family prefix hits — the factored path is not engaging")
			}
			// The sibling literals fusion builds share column passes, and no
			// TPC-DS column sends the typed kernels back to types.Compare: the
			// fast path must not quietly become the fallback.
			if corpus == "tpcds" && fusion && (n.cmpLeaves <= n.cmpGroups || n.cmpReruns != 0) {
				t.Fatalf("comparison leaves: %d groups, %d leaves, %d generic re-runs — want leaves > groups and no re-runs", n.cmpGroups, n.cmpLeaves, n.cmpReruns)
			}
		}}
	// The pipeline row holds batch size fixed across the drive seam: its
	// twin pulls every stack serially at the shape's batch size, coalescing
	// short scan batches, where the shape pushes multi-morsel scans on the
	// worker pool.
	pipelineRow = diffRow{name: "pipeline", seeds: 60, shapes: maskConfigs, revalidate: true,
		twin: func(c *Config) { c.Parallelism = 1 }}
	// The random corpora spread values uniformly across partitions, where
	// zone maps rarely exclude anything, so skipping's non-vacuity is pinned
	// by TestDifferentialSkipSelective on a clustered store instead.
	skipRow = diffRow{name: "skip", seeds: 60, shapes: maskConfigs, revalidate: true,
		twin:    func(c *Config) { c.noSkip = true },
		engaged: func(m *Metrics) int64 { return m.Skip.ChunksPruned }}

	diffMatrix = []diffRow{execRow, spillRow, maskRow, pipelineRow, skipRow}
)

// diffCase is one query of a corpus.
type diffCase struct {
	st    *storage.Store
	label string
	query string
	// limit is the memory limit spill shapes run under, given the reference
	// run, and whether that limit is low enough that every run must spill.
	limit func(ref *Result) (limit int64, mustSpill bool)
	// each, when set, sees every candidate-side result.
	each func(t *testing.T, desc string, res *Result)
}

// fixedLimit is the budget of corpora too small to profile per query: low
// enough that the testgen corpus as a whole spills, never a promise that one
// query does.
func fixedLimit(*Result) (int64, bool) { return spillTestLimit(defaultSpillTestLimit), false }

func testgenCase(t testing.TB, seed int64) diffCase {
	return diffCase{
		st: diffTestStore(t), label: fmt.Sprintf("seed %d", seed), query: testgen.New(seed).Query(),
		limit: fixedLimit,
	}
}

// profileLimit derives a memory limit from the reference run's own memory
// profile: a fixed margin above the query's unspillable floor (join builds,
// window buffers, spools) and below its total peak, so queries with
// substantial aggregation or sort state are forced to spill while
// join-dominated queries (whose state cannot spill) still fit. When the
// peak does not clear the floor by enough for a limit between them to be
// safe, the query just has to survive a limit at its own peak.
func profileLimit(ref *Result) (limit int64, mustSpill bool) {
	// floorMargin is the headroom above the unspillable floor a limited run
	// needs: replay reserves in 64KB chunks, merge cursors hold a few rows.
	const floorMargin = 256 << 10
	var unspillPeak int64
	for op, s := range ref.Metrics.MemOperators {
		if op != "groupby" && op != "sort" {
			unspillPeak += s.PeakBytes
		}
	}
	if peak := ref.Metrics.PeakMemoryBytes; peak < unspillPeak+floorMargin+(128<<10) {
		return peak + (64 << 10), false
	}
	return unspillPeak + floorMargin, true
}

// diffRef is a reference run with its rows rendered once for every
// comparison against it.
type diffRef struct {
	*Result
	rows string
}

// diffCompare is the one compare loop body: it runs c.query under cfg and
// requires the reference's exact rows and logical metrics; under a memory
// limit (limit > 0) it also requires the tracked peak to stay inside it and
// the spill directory to end up empty.
func diffCompare(t *testing.T, desc string, c diffCase, ref diffRef, cfg Config, limit int64, mustSpill bool) *Result {
	if limit > 0 {
		cfg.MemoryLimitBytes = limit
		cfg.SpillDir = t.TempDir()
	}
	res, err := OpenWithStore(c.st, cfg).Query(c.query)
	if err != nil {
		t.Fatalf("%s (limit=%d) failed: %v\n%s", desc, limit, err, c.query)
	}
	if got := exactRows(res.Rows); got != ref.rows {
		t.Fatalf("%s: rows differ from reference\nquery:\n%s\ngot:\n%s\nwant:\n%s\nplan:\n%s", desc, c.query, got, ref.rows, res.Plan)
	}
	if got, want := res.Metrics.Storage.BytesScanned, ref.Metrics.Storage.BytesScanned; got != want {
		t.Fatalf("%s: BytesScanned %d != %d\n%s", desc, got, want, c.query)
	}
	if got, want := res.Metrics.RowsProcessed, ref.Metrics.RowsProcessed; got != want {
		t.Fatalf("%s: RowsProcessed %d != %d\n%s", desc, got, want, c.query)
	}
	if limit > 0 {
		if res.Metrics.PeakMemoryBytes > limit {
			t.Fatalf("%s: peak tracked memory %d exceeds limit %d\n%s", desc, res.Metrics.PeakMemoryBytes, limit, c.query)
		}
		if mustSpill && res.Metrics.SpilledBytes == 0 {
			t.Fatalf("%s: expected a spill at limit %d (reference peak %d) but none happened", desc, limit, ref.Metrics.PeakMemoryBytes)
		}
		if ents, err := os.ReadDir(cfg.SpillDir); err != nil {
			t.Fatal(err)
		} else if len(ents) != 0 {
			t.Fatalf("%s: %d spill files leaked", desc, len(ents))
		}
	}
	return res
}

// runDiffRow runs one case through one row of the matrix, adding the
// candidate side's physical counters to totals[0] (fusion off) and
// totals[1] (fusion on).
func runDiffRow(t *testing.T, row diffRow, c diffCase, totals *[2]diffCounts) {
	sides := []bool{false}
	if row.revalidate {
		sides = []bool{true, false}
	}
	var refs [2]diffRef
	for f, fusion := range []bool{false, true} {
		refCfg := Config{EnableFusion: fusion, Parallelism: 1, BatchSize: 1}
		if row.twin != nil {
			row.twin(&refCfg)
		}
		refRes, err := OpenWithStore(c.st, refCfg).Query(c.query)
		if err != nil {
			t.Fatalf("%s %s reference (fusion=%v) failed: %v\n%s", c.label, row.name, fusion, err, c.query)
		}
		if row.engaged != nil && row.engaged(&refRes.Metrics) != 0 {
			t.Fatalf("%s %s reference (fusion=%v): twin counted %d on the candidate's counter", c.label, row.name, fusion, row.engaged(&refRes.Metrics))
		}
		ref := diffRef{refRes, exactRows(refRes.Rows)}
		refs[f] = ref
		limit, mustSpill := c.limit(refRes)
		n := &totals[f]
		if mustSpill {
			n.forced++
		}
		for _, sh := range row.shapes {
			for _, twinSide := range sides {
				cfg := Config{EnableFusion: fusion, Parallelism: sh.parallelism, BatchSize: sh.batchSize}
				if sh.share {
					cfg.ShareScans, cfg.ScanCacheBytes = true, 1<<20
				}
				desc := fmt.Sprintf("%s %s/%s (fusion=%v)", c.label, row.name, sh.name, fusion)
				if twinSide {
					row.twin(&cfg)
					desc += " twin"
				}
				shapeLimit := int64(0)
				if sh.spill {
					shapeLimit = limit
				}
				before := exec.CompileStats()
				res := diffCompare(t, desc, c, ref, cfg, shapeLimit, mustSpill)
				after := exec.CompileStats()
				var engaged int64
				if row.engaged != nil {
					engaged = row.engaged(&res.Metrics)
				}
				if twinSide {
					if engaged != 0 {
						t.Fatalf("%s: twin counted %d on the candidate's counter", desc, engaged)
					}
					continue
				}
				n.engaged += engaged
				n.fused += res.Metrics.Pipeline.FusedPipelines
				n.cmpGroups += after.CompareGroups - before.CompareGroups
				n.cmpLeaves += after.CompareLeaves - before.CompareLeaves
				n.cmpReruns += after.CompareGenericReruns - before.CompareGenericReruns
				n.saved += res.Metrics.Pipeline.MaterializedBatchesSaved
				n.spilledGroupBy += res.Metrics.MemOperators["groupby"].SpilledBytes
				n.spilledSort += res.Metrics.MemOperators["sort"].SpilledBytes
				if c.each != nil {
					c.each(t, desc, res)
				}
			}
		}
	}
	// Fusion changes plans, so row order and per-operator work may
	// legitimately differ; the row multiset must not.
	b, f := canonicalRows(refs[0].Rows), canonicalRows(refs[1].Rows)
	if len(b) != len(f) {
		t.Fatalf("%s: fusion changed row count %d -> %d\n%s", c.label, len(b), len(f), c.query)
	}
	for i := range b {
		if b[i] != f[i] {
			t.Fatalf("%s: fusion changed row %d\n  baseline: %s\n  fused:    %s\n%s", c.label, i, b[i], f[i], c.query)
		}
	}
}

// checkNonVacuous applies the row's vacuity guard to a finished corpus.
func checkNonVacuous(t *testing.T, row diffRow, corpus string, totals [2]diffCounts) {
	for f, fusion := range []bool{false, true} {
		t.Logf("%s %s fusion=%v: %+v", corpus, row.name, fusion, totals[f])
		if row.nonVacuous != nil && !t.Failed() {
			row.nonVacuous(t, corpus, fusion, totals[f])
		}
	}
}

// TestDifferentialMatrix is the bounded testgen corpus wired into plain
// `go test`: a fixed seed range per row, so CI covers the same queries
// every run.
func TestDifferentialMatrix(t *testing.T) {
	for _, row := range diffMatrix {
		row := row
		t.Run(row.name, func(t *testing.T) {
			var totals [2]diffCounts
			for seed := int64(0); seed < row.seeds; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
					runDiffRow(t, row, testgenCase(t, seed), &totals)
				})
			}
			checkNonVacuous(t, row, "testgen", totals)
		})
	}
}

// TestDifferentialMatrixTPCDS runs the full TPC-DS workload (the paper's
// eight affected queries plus the filler set) through every row, spill
// shapes under per-query limits derived from each reference's own memory
// profile.
func TestDifferentialMatrixTPCDS(t *testing.T) {
	st, err := tpcds.NewLoadedStore(0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range diffMatrix {
		row := row
		t.Run(row.name, func(t *testing.T) {
			var totals [2]diffCounts
			for _, q := range tpcds.Queries() {
				runDiffRow(t, row, diffCase{st: st, label: q.Name, query: q.SQL, limit: profileLimit}, &totals)
			}
			checkNonVacuous(t, row, "tpcds", totals)
		})
	}
}

// fuzzDiffRow extends one row to go test -fuzz: the fuzzer mutates the
// generator seed, searching for a query shape where a candidate diverges
// from its reference.
func fuzzDiffRow(f *testing.F, row diffRow) {
	for _, seed := range []int64{0, 1, 17, 42, 20220513, -9, -311} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var totals [2]diffCounts
		runDiffRow(t, row, testgenCase(t, seed), &totals)
	})
}

// One fuzz target per row: go test -fuzz accepts exactly one.
func FuzzDifferentialExec(f *testing.F)       { fuzzDiffRow(f, execRow) }
func FuzzDifferentialSpill(f *testing.F)      { fuzzDiffRow(f, spillRow) }
func FuzzDifferentialMaskFamily(f *testing.F) { fuzzDiffRow(f, maskRow) }
func FuzzDifferentialPipeline(f *testing.F)   { fuzzDiffRow(f, pipelineRow) }
func FuzzDifferentialSkip(f *testing.F)       { fuzzDiffRow(f, skipRow) }

var (
	skipStoreOnce sync.Once
	skipStore     *storage.Store
	skipStoreErr  error
)

// skipTestStore builds the clustered store the non-vacuity assertions run
// against: per-partition value ranges are disjoint (cs_v), one string
// column is all-NULL in one partition, one float column carries NaN, and
// the dimension's keys land entirely inside the first partition's range so
// sideways join filters prune the rest.
func skipTestStore(t testing.TB) *storage.Store {
	skipStoreOnce.Do(func() {
		cat := catalog.New()
		cat.MustAdd(&catalog.Table{
			Name: "cs",
			Columns: []catalog.Column{
				{Name: "cs_v", Type: types.KindInt64},
				{Name: "cs_w", Type: types.KindInt64},
				{Name: "cs_f", Type: types.KindFloat64},
				{Name: "cs_s", Type: types.KindString},
				{Name: "cs_part", Type: types.KindInt64},
			},
			PartitionColumn: "cs_part",
		})
		cat.MustAdd(&catalog.Table{
			Name: "ck",
			Columns: []catalog.Column{
				{Name: "ck_k", Type: types.KindInt64},
				{Name: "ck_name", Type: types.KindString},
			},
			Keys: [][]string{{"ck_k"}},
		})
		st := storage.NewStore(cat)
		var rows [][]types.Value
		for p := int64(0); p < 4; p++ {
			for i := int64(0); i < 50; i++ {
				v := p*1000 + i
				f := types.Float(float64(v) / 2)
				if p == 3 && i%10 == 0 {
					f = types.Float(math.NaN())
				}
				s := types.String(fmt.Sprintf("s%d", p))
				if p == 2 {
					s = types.NullOf(types.KindString)
				}
				rows = append(rows, []types.Value{types.Int(v), types.Int(i), f, s, types.Int(p)})
			}
		}
		if skipStoreErr = st.Load("cs", rows); skipStoreErr != nil {
			return
		}
		var drows [][]types.Value
		for k := int64(0); k < 50; k += 7 {
			drows = append(drows, []types.Value{types.Int(k), types.String("d")})
		}
		if skipStoreErr = st.Load("ck", drows); skipStoreErr != nil {
			return
		}
		skipStore = st
	})
	if skipStoreErr != nil {
		t.Fatal(skipStoreErr)
	}
	return skipStore
}

// selectiveSkipQueries are queries whose predicates provably exclude whole
// partitions of the clustered store — the non-vacuity set the acceptance
// criterion names.
var selectiveSkipQueries = []string{
	"SELECT cs_v, cs_w FROM cs WHERE cs_v >= 3000",
	"SELECT COUNT(*) AS c, SUM(cs_w) AS s FROM cs WHERE cs_v = 1500",
	"SELECT cs_v FROM cs WHERE cs_s = 's1'",
	"SELECT cs_v FROM cs WHERE cs_s IS NULL",
	"SELECT cs_v FROM cs WHERE cs_v IN (17, 2017)",
	"SELECT cs_v FROM cs WHERE cs_f < 0",
	"SELECT cs_v, cs_w FROM cs WHERE cs_v >= 3000 ORDER BY cs_w DESC LIMIT 5",
	"SELECT cs_v, ck_k FROM cs JOIN ck ON cs_v = ck_k",
}

// TestDifferentialSkipSelective pins the skip row's non-vacuity: every
// selective query must actually prune chunks under every shape while
// staying byte-identical to its noSkip twin.
func TestDifferentialSkipSelective(t *testing.T) {
	st := skipTestStore(t)
	for qi, query := range selectiveSkipQueries {
		var totals [2]diffCounts
		runDiffRow(t, skipRow, diffCase{
			st: st, label: fmt.Sprintf("q%d", qi), query: query,
			limit: fixedLimit, // never reached: the clustered store is tiny
			each: func(t *testing.T, desc string, res *Result) {
				if res.Metrics.Skip.ChunksPruned == 0 {
					t.Fatalf("%s: selective query pruned nothing (vacuous)\n%s\nplan:\n%s", desc, query, res.Plan)
				}
				if res.Metrics.Skip.PrunedBytes == 0 {
					t.Fatalf("%s: pruned chunks but zero pruned bytes\n%s", desc, query)
				}
			},
		}, &totals)
	}
}

// TestDifferentialSharedScans is the shared-vs-unshared differential mode:
// one query set runs concurrently (staggered, with repeats, so queries
// race each other's cold decodes and hit the chunk cache) under
// ShareScans off and on, across parallel configurations and fusion
// settings. Every run must reproduce the serial unshared reference
// byte-for-byte, with identical per-query row counts and BytesScanned —
// scan sharing may only change physical decode work, never results or
// logical scan accounting.
func TestDifferentialSharedScans(t *testing.T) {
	// A dedicated store: this test's ScanCacheBytes must be the one that
	// initializes the store's share manager (first sharing run wins), and a
	// small bound keeps eviction in play under the fuzz workload.
	st, err := testgen.NewStore(99173, 600)
	if err != nil {
		t.Fatal(err)
	}
	queries := testgen.QuerySet(424242, 24)

	type ref struct {
		rows    string
		scanned int64
	}
	for _, fusion := range []bool{false, true} {
		serial := OpenWithStore(st, Config{EnableFusion: fusion, Parallelism: 1, BatchSize: 1})
		refs := make([]ref, len(queries))
		for i, q := range queries {
			res, err := serial.Query(q)
			if err != nil {
				t.Fatalf("reference (fusion=%v) failed: %v\n%s", fusion, err, q)
			}
			refs[i] = ref{rows: exactRows(res.Rows), scanned: res.Metrics.Storage.BytesScanned}
		}
		for _, share := range []bool{false, true} {
			engines := []*Engine{
				OpenWithStore(st, Config{EnableFusion: fusion, Parallelism: 4, BatchSize: 256,
					ShareScans: share, ScanCacheBytes: 1 << 20}),
				OpenWithStore(st, Config{EnableFusion: fusion, Parallelism: 3, BatchSize: 7,
					ShareScans: share, ScanCacheBytes: 1 << 20}),
			}
			const rounds = 2
			var wg sync.WaitGroup
			errs := make(chan error, rounds*len(queries))
			for r := 0; r < rounds; r++ {
				for i, q := range queries {
					r, i, q := r, i, q
					wg.Add(1)
					go func() {
						defer wg.Done()
						time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
						res, err := engines[(r+i)%len(engines)].Query(q)
						if err != nil {
							errs <- fmt.Errorf("query %d (share=%v fusion=%v): %w\n%s", i, share, fusion, err, q)
							return
						}
						if got := exactRows(res.Rows); got != refs[i].rows {
							errs <- fmt.Errorf("query %d (share=%v fusion=%v): rows differ from serial unshared reference\n%s", i, share, fusion, q)
							return
						}
						if got := res.Metrics.Storage.BytesScanned; got != refs[i].scanned {
							errs <- fmt.Errorf("query %d (share=%v fusion=%v): BytesScanned %d != %d\n%s", i, share, fusion, got, refs[i].scanned, q)
							return
						}
					}()
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		}
	}
}
