package exec

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/rescache"
	"repro/internal/storage"
	"repro/internal/types"
)

// TestResultCacheCaptureRows checks what the capture tee offers the cache
// when its input arrives in several batches, the last one partial: every
// streamed row in emission order, each row exactly as wide as the schema
// with no spare capacity (so no consumer can append into a neighbour in the
// shared slab), and the entry's Bytes the sum of RowBytes over those rows.
// The capture is the second run: a first sight only records the fingerprint.
// A hit on a masked aggregation then replays the logical cost but reports
// no MaskPrefixHits, a physical counter of work the hit did not do.
func TestResultCacheCaptureRows(t *testing.T) {
	st := skipFixture(t, []int64{1})
	opts := Options{Parallelism: 2, BatchSize: 3, ResultCacheBytes: 1 << 20}
	mk := func() logical.Operator {
		s := scanOf(t, st, "fact")
		return logical.NewFilter(s, expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("f_w")), expr.Lit(types.Int(20))))
	}
	firstSight(t, st, mk(), opts)
	res, err := RunWith(mk(), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ResultCache.Misses != 1 || res.Metrics.ResultCache.AdmissionRejects != 0 {
		t.Fatalf("capture run: %+v", res.Metrics.ResultCache)
	}
	if len(res.Rows) <= opts.BatchSize || len(res.Rows)%opts.BatchSize == 0 {
		t.Fatalf("%d rows do not span several batches with a partial last one", len(res.Rows))
	}
	tx := rescache.For(st, opts.ResultCacheBytes).Begin(mk(), st)
	ent, ok := tx.Lookup()
	if !ok {
		t.Fatal("captured result was not admitted")
	}
	if rowsKey(ent.Rows) != rowsKey(res.Rows) {
		t.Fatal("captured rows differ from the streamed rows")
	}
	width := len(mk().Schema())
	var bytes int64
	for i, row := range ent.Rows {
		if len(row) != width || cap(row) != width {
			t.Fatalf("row %d: len %d cap %d, want both %d", i, len(row), cap(row), width)
		}
		bytes += rescache.RowBytes(row)
	}
	if ent.Bytes != bytes {
		t.Fatalf("entry accounts %d bytes, rows hold %d", ent.Bytes, bytes)
	}

	masked := func() logical.Operator {
		s := scanOf(t, st, "fact")
		v, w := expr.Ref(s.ColumnFor("f_v")), expr.Ref(s.ColumnFor("f_w"))
		prefix := expr.NewBinary(expr.OpGe, v, expr.Lit(types.Int(100)))
		sum := expr.AggCall{Fn: expr.AggSum, Arg: w, Mask: expr.And(prefix, expr.NewBinary(expr.OpGt, w, expr.Lit(types.Int(10))))}
		cnt := expr.AggCall{Fn: expr.AggCountStar, Mask: expr.And(prefix, expr.NewBinary(expr.OpLe, w, expr.Lit(types.Int(10))))}
		return &logical.GroupBy{Input: s, Aggs: []logical.AggAssign{
			{Col: expr.NewColumn("s", sum.ResultType()), Agg: sum},
			{Col: expr.NewColumn("c", cnt.ResultType()), Agg: cnt},
		}}
	}
	var runs []*Result
	for range 3 { // first sight, capture, hit
		res, err := RunWith(masked(), st, opts)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
	}
	miss, hit := runs[1], runs[2]
	if miss.Metrics.ResultCache.Misses != 1 || miss.Metrics.ResultCache.Deferred != 0 || hit.Metrics.ResultCache.Hits != 1 {
		t.Fatalf("masked aggregation: capture %+v, hit %+v", miss.Metrics.ResultCache, hit.Metrics.ResultCache)
	}
	if rowsKey(hit.Rows) != rowsKey(miss.Rows) || hit.Metrics.RowsProcessed != miss.Metrics.RowsProcessed {
		t.Fatal("masked aggregation: the hit does not replay the capture run")
	}
	if miss.Metrics.MaskPrefixHits == 0 || hit.Metrics.MaskPrefixHits != 0 {
		t.Fatalf("MaskPrefixHits: capture %d, hit %d; want the capture only", miss.Metrics.MaskPrefixHits, hit.Metrics.MaskPrefixHits)
	}
}

// TestSizeRejectRemembered: a result past MaxEntryBytes is copied and
// rejected once; with its table unchanged, the next miss of the same
// fingerprint is built uncaptured, as with the cache off.
func TestSizeRejectRemembered(t *testing.T) {
	st := skipFixture(t, []int64{1})
	// MaxEntryBytes is a quarter of 4 KiB; the result is 20 rows of 5 values.
	opts := Options{Parallelism: 2, ResultCacheBytes: 4 << 10}
	mk := func() logical.Operator {
		s := scanOf(t, st, "fact")
		return logical.NewFilter(s, expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("f_w")), expr.Lit(types.Int(20))))
	}
	ref, err := RunWith(mk(), st, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	firstSight(t, st, mk(), opts)
	for run, want := range []ResultCacheMetrics{
		{Misses: 1, AdmissionRejects: 1},
		{Misses: 1, Deferred: 1},
	} {
		res, err := RunWith(mk(), st, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.ResultCache != want {
			t.Fatalf("run %d: ResultCache = %+v, want %+v", run, res.Metrics.ResultCache, want)
		}
		if rowsKey(res.Rows) != rowsKey(ref.Rows) || res.Metrics.Storage != ref.Metrics.Storage ||
			res.Metrics.RowsProcessed != ref.Metrics.RowsProcessed {
			t.Fatalf("run %d: rows or logical metrics diverge from the cache-off run", run)
		}
	}
	if n, _ := rescache.For(st, opts.ResultCacheBytes).Stats(); n != 0 {
		t.Fatalf("oversized result admitted: %d entries", n)
	}
}

// firstSight runs plan once on a cache that has never seen it and checks
// that the miss was built uncaptured: one deferred miss, nothing offered,
// nothing admitted.
func firstSight(t *testing.T, st *storage.Store, plan logical.Operator, opts Options) *Result {
	t.Helper()
	res, err := RunWith(plan, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rc := res.Metrics.ResultCache; rc.Misses != 1 || rc.Deferred != 1 || rc.AdmissionRejects != 0 {
		t.Fatalf("first sight: ResultCache = %+v, want one deferred miss", rc)
	}
	if n, _ := rescache.For(st, opts.ResultCacheBytes).Stats(); n != 0 {
		t.Fatalf("first sight admitted %d entries", n)
	}
	return res
}

// TestSidewaysFilterOnFirstSight: a join probe side that is an eligible
// sub-plan (a pure project chain) and misses for the first time is built
// exactly as with the cache off, so the build side's min/max still prunes
// its scan. Rows, Skip, Storage and RowsProcessed match a cache-off run.
func TestSidewaysFilterOnFirstSight(t *testing.T) {
	for name, opts := range skipConfigs() {
		// Build keys live in [0, 24]: only fact partition 0 can match.
		st := skipFixture(t, []int64{3, 7, 24})
		s := scanOf(t, st, "fact")
		d := scanOf(t, st, "dim")
		probe := &logical.Project{Input: s, Cols: []logical.Assignment{
			logical.Assign("pv", expr.Ref(s.ColumnFor("f_v"))),
			logical.Assign("pw2", expr.NewBinary(expr.OpMul, expr.Ref(s.ColumnFor("f_w")), expr.Lit(types.Int(2)))),
		}}
		plan := &logical.Join{Kind: logical.InnerJoin, Left: probe, Right: d,
			Cond: expr.Eq(expr.Ref(probe.Cols[0].Col), expr.Ref(d.ColumnFor("d_k")))}

		ref, err := RunWith(plan, st, opts)
		if err != nil {
			t.Fatalf("%s: cache-off run: %v", name, err)
		}
		cached := opts
		cached.ResultCacheBytes = 1 << 20
		got, err := RunWith(plan, st, cached)
		if err != nil {
			t.Fatalf("%s: first-sight run: %v", name, err)
		}
		if rc := got.Metrics.ResultCache; rc.Misses == 0 || rc.Deferred != rc.Misses {
			t.Fatalf("%s: ResultCache = %+v, want only deferred misses", name, rc)
		}
		if got.Metrics.Skip.ChunksPruned == 0 {
			t.Fatalf("%s: first-sight probe did not prune: %+v", name, got.Metrics.Skip)
		}
		if rowsKey(got.Rows) != rowsKey(ref.Rows) {
			t.Fatalf("%s: rows diverge from the cache-off run", name)
		}
		if got.Metrics.Skip != ref.Metrics.Skip || got.Metrics.Storage != ref.Metrics.Storage ||
			got.Metrics.RowsProcessed != ref.Metrics.RowsProcessed {
			t.Fatalf("%s: metrics diverge from the cache-off run:\nskip %+v vs %+v\nstorage %+v vs %+v\nprocessed %d vs %d", name,
				got.Metrics.Skip, ref.Metrics.Skip, got.Metrics.Storage, ref.Metrics.Storage,
				got.Metrics.RowsProcessed, ref.Metrics.RowsProcessed)
		}
	}
}
