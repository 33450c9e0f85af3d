package exec

import (
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
)

// skipFixture builds a fact table whose per-partition value ranges are
// disjoint — the layout zone maps exploit — plus a small dimension:
//
//	fact: 4 partitions (f_part 0..3) of 25 rows each
//	  f_v    partition p holds p*100 .. p*100+24
//	  f_w    0..24 within each partition (overlapping across partitions)
//	  f_f    float: f_v/2; partition 3 rows with f_w%5==0 hold NaN;
//	         partition 0 rows with f_w%7==0 hold -0
//	  f_s    "s<p>"; all-NULL in partition 2
//	dim: d_k int64, d_name string
func skipFixture(t *testing.T, dimKeys []int64) *storage.Store {
	t.Helper()
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "fact",
		Columns: []catalog.Column{
			{Name: "f_v", Type: types.KindInt64},
			{Name: "f_w", Type: types.KindInt64},
			{Name: "f_f", Type: types.KindFloat64},
			{Name: "f_s", Type: types.KindString},
			{Name: "f_part", Type: types.KindInt64},
		},
		PartitionColumn: "f_part",
	})
	cat.MustAdd(&catalog.Table{
		Name: "dim",
		Columns: []catalog.Column{
			{Name: "d_k", Type: types.KindInt64},
			{Name: "d_name", Type: types.KindString},
		},
		Keys: [][]string{{"d_k"}},
	})
	st := storage.NewStore(cat)
	var rows [][]types.Value
	for p := int64(0); p < 4; p++ {
		for w := int64(0); w < 25; w++ {
			v := p*100 + w
			f := types.Float(float64(v) / 2)
			if p == 3 && w%5 == 0 {
				f = types.Float(math.NaN())
			}
			if p == 0 && w%7 == 0 {
				f = types.Float(math.Copysign(0, -1))
			}
			s := types.String("s" + string(rune('0'+p)))
			if p == 2 {
				s = types.NullOf(types.KindString)
			}
			rows = append(rows, []types.Value{types.Int(v), types.Int(w), f, s, types.Int(p)})
		}
	}
	if err := st.Load("fact", rows); err != nil {
		t.Fatal(err)
	}
	var drows [][]types.Value
	for _, k := range dimKeys {
		drows = append(drows, []types.Value{types.Int(k), types.String("d")})
	}
	if err := st.Load("dim", drows); err != nil {
		t.Fatal(err)
	}
	return st
}

// skipConfigs are the execution paths a prune decision can ride: serial
// and morsel-parallel.
func skipConfigs() map[string]Options {
	return map[string]Options{
		"serial":   {Parallelism: 1},
		"parallel": {Parallelism: 4},
	}
}

func rowsKey(rows []Row) string {
	var sb strings.Builder
	var kb strings.Builder
	for _, r := range rows {
		sb.WriteString(encodeKey(&kb, r))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// runSkipDiff executes the plan with skipping on and off under every
// execution config and requires byte-identical rows and logical metrics.
// wantPrune asserts that the skipping run actually pruned (non-vacuity).
func runSkipDiff(t *testing.T, st *storage.Store, plan logical.Operator, wantPrune bool) {
	t.Helper()
	for name, opts := range skipConfigs() {
		base := opts
		base.NoSkip = true
		ref, err := RunWith(plan, st, base)
		if err != nil {
			t.Fatalf("%s: baseline run: %v", name, err)
		}
		got, err := RunWith(plan, st, opts)
		if err != nil {
			t.Fatalf("%s: skip run: %v", name, err)
		}
		if rowsKey(got.Rows) != rowsKey(ref.Rows) {
			t.Fatalf("%s: rows diverge with skipping on (%d vs %d rows)", name, len(got.Rows), len(ref.Rows))
		}
		if got.Metrics.Storage.BytesScanned != ref.Metrics.Storage.BytesScanned ||
			got.Metrics.Storage.RowsScanned != ref.Metrics.Storage.RowsScanned {
			t.Fatalf("%s: storage metrics diverge: %+v vs %+v", name, got.Metrics.Storage, ref.Metrics.Storage)
		}
		if got.Metrics.RowsProcessed != ref.Metrics.RowsProcessed {
			t.Fatalf("%s: RowsProcessed = %d with skip, %d without", name,
				got.Metrics.RowsProcessed, ref.Metrics.RowsProcessed)
		}
		if ref.Metrics.Skip.ChunksPruned != 0 || ref.Metrics.Skip.PrunedBytes != 0 {
			t.Fatalf("%s: NoSkip run reported pruning: %+v", name, ref.Metrics.Skip)
		}
		if wantPrune && got.Metrics.Skip.PartitionsPruned == 0 {
			t.Fatalf("%s: expected pruning, Skip = %+v", name, got.Metrics.Skip)
		}
		if !wantPrune && got.Metrics.Skip.PartitionsPruned != 0 {
			t.Fatalf("%s: unexpected pruning: %+v", name, got.Metrics.Skip)
		}
		if wantPrune && got.Metrics.Skip.PrunedBytes == 0 {
			t.Fatalf("%s: pruned partitions but no pruned bytes: %+v", name, got.Metrics.Skip)
		}
	}
}

func factPlan(t *testing.T, st *storage.Store, cond func(s *logical.Scan) expr.Expr) logical.Operator {
	t.Helper()
	s := scanOf(t, st, "fact")
	return logical.NewFilter(s, cond(s))
}

func TestSkipZoneMapRangePredicate(t *testing.T) {
	st := skipFixture(t, []int64{1})
	// f_v >= 300 holds only in partition 3; zone maps prune 0..2 (a
	// non-partition column, so the partition pruner cannot help).
	runSkipDiff(t, st, factPlan(t, st, func(s *logical.Scan) expr.Expr {
		return expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("f_v")), expr.Lit(types.Int(300)))
	}), true)
	// f_v = 150: inside partition 1's range but absent; min/max alone
	// cannot prune partition 1, the rest go.
	runSkipDiff(t, st, factPlan(t, st, func(s *logical.Scan) expr.Expr {
		return expr.Eq(expr.Ref(s.ColumnFor("f_v")), expr.Lit(types.Int(150)))
	}), true)
}

func TestSkipAllNullChunk(t *testing.T) {
	st := skipFixture(t, []int64{1})
	// f_s = 's1': partition 2's all-NULL chunk and the other partitions'
	// disjoint single-value chunks all prune; only partition 1 survives.
	runSkipDiff(t, st, factPlan(t, st, func(s *logical.Scan) expr.Expr {
		return expr.Eq(expr.Ref(s.ColumnFor("f_s")), expr.Lit(types.String("s1")))
	}), true)
	// f_s IS NULL prunes every no-NULL partition, keeps the all-NULL one.
	runSkipDiff(t, st, factPlan(t, st, func(s *logical.Scan) expr.Expr {
		return &expr.IsNull{E: expr.Ref(s.ColumnFor("f_s"))}
	}), true)
	// f_s IS NOT NULL prunes exactly the all-NULL partition.
	runSkipDiff(t, st, factPlan(t, st, func(s *logical.Scan) expr.Expr {
		return &expr.IsNull{E: expr.Ref(s.ColumnFor("f_s")), Neg: true}
	}), true)
}

func TestSkipFloatNaNAndNegZero(t *testing.T) {
	st := skipFixture(t, []int64{1})
	// f_f > 1000: every regular value is below; partition 3's NaN rows
	// cannot satisfy an ordering predicate either, so everything prunes.
	runSkipDiff(t, st, factPlan(t, st, func(s *logical.Scan) expr.Expr {
		return expr.NewBinary(expr.OpGt, expr.Ref(s.ColumnFor("f_f")), expr.Lit(types.Float(1000)))
	}), true)
	// f_f < 0: partition 0's -0 values compare equal to 0, so its chunk
	// bounds ([-0, 12]) admit no row; nothing anywhere is negative.
	runSkipDiff(t, st, factPlan(t, st, func(s *logical.Scan) expr.Expr {
		return expr.NewBinary(expr.OpLt, expr.Ref(s.ColumnFor("f_f")), expr.Lit(types.Float(0)))
	}), true)
	// f_f = NaN-adjacent range probe: a predicate the NaN-bearing partition
	// must NOT be pruned for if the engine's comparison semantics admit it.
	// The differential (rows identical) is the assertion; prune or not is
	// whatever the zone map soundly decides.
	for name, opts := range skipConfigs() {
		plan := factPlan(t, st, func(s *logical.Scan) expr.Expr {
			return expr.Eq(expr.Ref(s.ColumnFor("f_f")), expr.Lit(types.Float(51)))
		})
		base := opts
		base.NoSkip = true
		ref, err := RunWith(plan, st, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunWith(plan, st, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rowsKey(got.Rows) != rowsKey(ref.Rows) || got.Metrics.RowsProcessed != ref.Metrics.RowsProcessed {
			t.Fatalf("%s: NaN-range probe diverges", name)
		}
	}
}

func TestSkipInList(t *testing.T) {
	st := skipFixture(t, []int64{1})
	// Every listed value misses partitions 0, 1 and 3.
	runSkipDiff(t, st, factPlan(t, st, func(s *logical.Scan) expr.Expr {
		return &expr.InList{E: expr.Ref(s.ColumnFor("f_v")), List: []expr.Expr{
			expr.Lit(types.Int(205)), expr.Lit(types.Int(210)), expr.Lit(types.NullOf(types.KindInt64)),
		}}
	}), true)
}

func TestSkipColVsColNoPruning(t *testing.T) {
	st := skipFixture(t, []int64{1})
	// A column-to-column comparison compiles to no zone check: rows stay
	// identical and nothing is pruned (soundness over completeness).
	runSkipDiff(t, st, factPlan(t, st, func(s *logical.Scan) expr.Expr {
		return expr.NewBinary(expr.OpLt, expr.Ref(s.ColumnFor("f_v")), expr.Ref(s.ColumnFor("f_w")))
	}), false)
}

func TestSkipLimitEarlyExit(t *testing.T) {
	st := skipFixture(t, []int64{1})
	s := scanOf(t, st, "fact")
	plan := &logical.Limit{
		Input: logical.NewFilter(s, expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("f_v")), expr.Lit(types.Int(300)))),
		N:     5,
	}
	// LIMIT truncates the pull mid-stream; the consumer-side recharge must
	// keep RowsProcessed identical to a truncated no-skip run. Only the
	// logical metrics and rows are compared here.
	for name, opts := range skipConfigs() {
		base := opts
		base.NoSkip = true
		ref, err := RunWith(plan, st, base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := RunWith(plan, st, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Rows) != 5 || rowsKey(got.Rows) != rowsKey(ref.Rows) {
			t.Fatalf("%s: LIMIT rows diverge (%d vs %d)", name, len(got.Rows), len(ref.Rows))
		}
		if got.Metrics.RowsProcessed != ref.Metrics.RowsProcessed ||
			got.Metrics.Storage != ref.Metrics.Storage {
			t.Fatalf("%s: LIMIT metrics diverge: processed %d vs %d", name,
				got.Metrics.RowsProcessed, ref.Metrics.RowsProcessed)
		}
	}
}

func TestSkipChainConsumers(t *testing.T) {
	st := skipFixture(t, []int64{1})
	s := scanOf(t, st, "fact")
	filt := logical.NewFilter(s, expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("f_v")), expr.Lit(types.Int(300))))
	sum := expr.AggCall{Fn: expr.AggSum, Arg: expr.Ref(s.ColumnFor("f_w"))}
	agg := &logical.GroupBy{Input: filt, Aggs: []logical.AggAssign{
		{Col: expr.NewColumn("t", sum.ResultType()), Agg: sum},
	}}
	runSkipDiff(t, st, agg, true)

	s2 := scanOf(t, st, "fact")
	filt2 := logical.NewFilter(s2, expr.NewBinary(expr.OpGe, expr.Ref(s2.ColumnFor("f_v")), expr.Lit(types.Int(300))))
	srt := &logical.Sort{Input: filt2, Keys: []logical.SortKey{{E: expr.Ref(s2.ColumnFor("f_w")), Desc: true}}}
	runSkipDiff(t, st, srt, true)

	// The two runChain emit targets — the plain chain (append) and the
	// scalar sink (fold) — plus a sort draining the plain chain, over the
	// same prunable chain, at a batch size small enough that the fixture cuts
	// into one morsel per partition, so the parallel forms run instead of
	// their one-morsel serial fallback. All pruned-partition recharges are
	// worker-side there; each consumer must still agree with the serial run,
	// whose recharges land in its consumer's pull.
	s3 := scanOf(t, st, "fact")
	chain := logical.NewFilter(s3, expr.NewBinary(expr.OpGe, expr.Ref(s3.ColumnFor("f_v")), expr.Lit(types.Int(300))))
	parallel := Options{Parallelism: 4, BatchSize: 8}
	serial := Options{Parallelism: 1, BatchSize: 8}
	var batches []int64
	for name, plan := range map[string]logical.Operator{"chain": chain, "scalar-agg": agg, "sort": srt} {
		got, err := RunWith(plan, st, parallel)
		if err != nil {
			t.Fatalf("%s: parallel run: %v", name, err)
		}
		ref, err := RunWith(plan, st, serial)
		if err != nil {
			t.Fatalf("%s: serial run: %v", name, err)
		}
		if rowsKey(got.Rows) != rowsKey(ref.Rows) {
			t.Fatalf("%s: rows diverge from the serial run (%d vs %d rows)", name, len(got.Rows), len(ref.Rows))
		}
		if got.Metrics.RowsProcessed != ref.Metrics.RowsProcessed {
			t.Fatalf("%s: RowsProcessed = %d, serial %d", name, got.Metrics.RowsProcessed, ref.Metrics.RowsProcessed)
		}
		if p := got.Metrics.Skip.PartitionsPruned; p != 3 || p != ref.Metrics.Skip.PartitionsPruned {
			t.Fatalf("%s: PartitionsPruned = %d, serial %d, want 3", name, p, ref.Metrics.Skip.PartitionsPruned)
		}
		if got.Metrics.Pipeline.FusedPipelines != 1 || ref.Metrics.Pipeline.FusedPipelines != 1 {
			t.Fatalf("%s: FusedPipelines = %d (serial %d), want 1", name,
				got.Metrics.Pipeline.FusedPipelines, ref.Metrics.Pipeline.FusedPipelines)
		}
		batches = append(batches, got.Metrics.Pipeline.PipelineBatches)
	}
	if batches[0] == 0 || batches[1] != batches[0] || batches[2] != batches[0] {
		t.Fatalf("PipelineBatches differ across consumers of one chain: %v", batches)
	}
	// Non-vacuity: coalescing is per morsel, so with nothing pruned the
	// morsel-parallel chain pushes more (shorter) batches than the serial one.
	par, err := RunWith(chain, st, Options{Parallelism: 4, BatchSize: 8, NoSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := RunWith(chain, st, Options{Parallelism: 1, BatchSize: 8, NoSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	if par.Metrics.Pipeline.PipelineBatches <= ser.Metrics.Pipeline.PipelineBatches {
		t.Fatalf("parallel chain pushed %d batches, serial %d: the fixture no longer cuts into several morsels",
			par.Metrics.Pipeline.PipelineBatches, ser.Metrics.Pipeline.PipelineBatches)
	}
}

func TestSidewaysJoinFilter(t *testing.T) {
	// Build keys live in [0, 24]: only fact partition 0 can match, the
	// other three prune on the published min/max without decoding.
	st := skipFixture(t, []int64{3, 7, 24})
	s := scanOf(t, st, "fact")
	d := scanOf(t, st, "dim")
	join := func(kind logical.JoinKind) logical.Operator {
		return &logical.Join{Kind: kind, Left: s, Right: d,
			Cond: expr.Eq(expr.Ref(s.ColumnFor("f_v")), expr.Ref(d.ColumnFor("d_k")))}
	}
	runSkipDiff(t, st, join(logical.InnerJoin), true)
	runSkipDiff(t, st, join(logical.SemiJoin), true)
	// LEFT JOIN NULL-extends unmatched probe rows: nothing may be skipped.
	runSkipDiff(t, st, join(logical.LeftJoin), false)
}

func TestSidewaysMinMaxOverlap(t *testing.T) {
	// Keys 105 and 2000: partition 0 (0..24) lies below the build range
	// [105, 2000] and prunes; partitions 1 (holds 105), 2 and 3 overlap it
	// and are kept, though 2 and 3 hold no build key. The filter decides on
	// min/max alone.
	st := skipFixture(t, []int64{105, 2000})
	s := scanOf(t, st, "fact")
	d := scanOf(t, st, "dim")
	plan := &logical.Join{Kind: logical.InnerJoin, Left: s, Right: d,
		Cond: expr.Eq(expr.Ref(s.ColumnFor("f_v")), expr.Ref(d.ColumnFor("d_k")))}
	runSkipDiff(t, st, plan, true)
	got, err := RunWith(plan, st, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sk := got.Metrics.Skip; sk.PartitionsPruned != 1 || sk.BloomPruned != 0 {
		t.Fatalf("Skip = %+v, want one partition pruned and no bloom prunes", sk)
	}
}

// TestSidewaysFloatKeys joins fact.f_f to a DOUBLE build key. Per
// partition f_f spans 0 → [-0, 12], 1 → [50, 62], 2 → [100, 112], 3 →
// [150, 162] plus NaN rows, and an appended partition 4 holds only +0. A
// NaN probe value matches only a NaN build key, and −0 and +0 compare
// equal under the zone maps (they are distinct join keys), so a −0 build
// key keeps both partition 0 and the +0 partition.
func TestSidewaysFloatKeys(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, tc := range []struct {
		name   string
		keys   []float64
		pruned int64
	}{
		{"nan-probe-only", []float64{51}, 4},
		{"nan-both-sides", []float64{nan, 51}, 3},
		{"neg-zero-build", []float64{negZero}, 3},
	} {
		st := skipFixture(t, nil)
		var zeros [][]types.Value
		for w := int64(0); w < 5; w++ {
			zeros = append(zeros, []types.Value{types.Int(400 + w), types.Int(w), types.Float(0), types.String("s4"), types.Int(4)})
		}
		if err := st.Append("fact", zeros); err != nil {
			t.Fatal(err)
		}
		st.Catalog().MustAdd(&catalog.Table{
			Name:    "fdim",
			Columns: []catalog.Column{{Name: "d_f", Type: types.KindFloat64}},
		})
		var keys [][]types.Value
		for _, k := range tc.keys {
			keys = append(keys, []types.Value{types.Float(k)})
		}
		if err := st.Load("fdim", keys); err != nil {
			t.Fatal(err)
		}
		s := scanOf(t, st, "fact")
		d := scanOf(t, st, "fdim")
		plan := &logical.Join{Kind: logical.InnerJoin, Left: s, Right: d,
			Cond: expr.Eq(expr.Ref(s.ColumnFor("f_f")), expr.Ref(d.ColumnFor("d_f")))}
		runSkipDiff(t, st, plan, true)
		for name, opts := range skipConfigs() {
			got, err := RunWith(plan, st, opts)
			if err != nil {
				t.Fatal(err)
			}
			if p := got.Metrics.Skip.PartitionsPruned; p != tc.pruned {
				t.Fatalf("%s/%s: PartitionsPruned = %d, want %d", tc.name, name, p, tc.pruned)
			}
		}
	}
}

func TestSidewaysEmptyBuild(t *testing.T) {
	// An empty dimension can never match: every probe partition prunes.
	st := skipFixture(t, nil)
	s := scanOf(t, st, "fact")
	d := scanOf(t, st, "dim")
	plan := &logical.Join{Kind: logical.InnerJoin, Left: s, Right: d,
		Cond: expr.Eq(expr.Ref(s.ColumnFor("f_v")), expr.Ref(d.ColumnFor("d_k")))}
	runSkipDiff(t, st, plan, true)
}

func TestSkipWithScanShare(t *testing.T) {
	// Interleave a pruning query with a full scan over one sharing store:
	// chunks one query pruned must still be decodable (and cacheable) by
	// the other, in either order.
	st := skipFixture(t, []int64{1})
	opts := Options{Parallelism: 2, ShareScans: true, ScanCacheBytes: 1 << 20}
	sel := func() logical.Operator {
		s := scanOf(t, st, "fact")
		return logical.NewFilter(s, expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("f_v")), expr.Lit(types.Int(300))))
	}
	full := func() logical.Operator { return scanOf(t, st, "fact") }

	r1, err := RunWith(sel(), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Metrics.Skip.PartitionsPruned == 0 {
		t.Fatalf("selective query did not prune: %+v", r1.Metrics.Skip)
	}
	r2, err := RunWith(full(), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Rows) != 100 {
		t.Fatalf("full scan after pruning run returned %d rows", len(r2.Rows))
	}
	// Reverse order: cache warmed by the full scan, pruning still applies.
	r3, err := RunWith(sel(), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Metrics.Skip.PartitionsPruned == 0 {
		t.Fatalf("warm-cache selective query did not prune: %+v", r3.Metrics.Skip)
	}
	if len(r3.Rows) != len(r1.Rows) {
		t.Fatalf("warm vs cold selective rows: %d vs %d", len(r3.Rows), len(r1.Rows))
	}
}

// TestShareScansChunkAccounting: on a ShareScans run every chunk request is
// either a cache hit or a decode (the identity the benchmark's
// scanshare.shared_hit_frac divides by), the retired attach counters stay
// zero, and a repeat of the same query decodes nothing — for the scan leaf
// and for a fused chain, serial and morsel-parallel.
func TestShareScansChunkAccounting(t *testing.T) {
	plans := map[string]func(*storage.Store) logical.Operator{
		"scan": func(st *storage.Store) logical.Operator { return scanOf(t, st, "fact") },
		"chain": func(st *storage.Store) logical.Operator {
			s := scanOf(t, st, "fact")
			return logical.NewFilter(s, expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("f_v")), expr.Lit(types.Int(300))))
		},
	}
	for name, plan := range plans {
		for _, par := range []int{1, 2} {
			// A fresh store per case: its share cache starts cold. NoSkip
			// keeps every partition in play, and BatchSize 8 cuts the 4×25
			// rows into several morsels.
			st := skipFixture(t, nil)
			opts := Options{Parallelism: par, BatchSize: 8, ShareScans: true, NoSkip: true}
			reqs := int64(4 * len(scanOf(t, st, "fact").ColNames))
			for run, wantDecoded := range []int64{reqs, 0} {
				res, err := RunWith(plan(st), st, opts)
				if err != nil {
					t.Fatal(err)
				}
				sh := res.Metrics.Share
				if sh.SharedHits != 0 || sh.StreamHits != 0 {
					t.Fatalf("%s/par=%d run %d: SharedHits=%d StreamHits=%d, want 0", name, par, run, sh.SharedHits, sh.StreamHits)
				}
				if sh.CacheHits+sh.ChunksDecoded != reqs {
					t.Fatalf("%s/par=%d run %d: CacheHits %d + ChunksDecoded %d != %d chunk requests", name, par, run, sh.CacheHits, sh.ChunksDecoded, reqs)
				}
				if sh.ChunksDecoded != wantDecoded {
					t.Fatalf("%s/par=%d run %d: ChunksDecoded = %d, want %d", name, par, run, sh.ChunksDecoded, wantDecoded)
				}
			}
		}
	}
}

// TestSharedPrefixSkip exercises the fused-run path: the mask family's
// shared prefix (f_v >= 300) prunes partitions on behalf of the whole
// batch, and every subscriber's rows and the fused logical metrics stay
// identical to a NoSkip fused run.
func TestSharedPrefixSkip(t *testing.T) {
	st := skipFixture(t, []int64{1})
	build := func() (logical.Operator, []SharedSub) {
		s := scanOf(t, st, "fact")
		ge := func() expr.Expr {
			return expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("f_v")), expr.Lit(types.Int(300)))
		}
		c0 := expr.And(ge(), expr.NewBinary(expr.OpGt, expr.Ref(s.ColumnFor("f_w")), expr.Lit(types.Int(10))))
		c1 := expr.And(ge(), expr.NewBinary(expr.OpLe, expr.Ref(s.ColumnFor("f_w")), expr.Lit(types.Int(10))))
		union := expr.NewBinary(expr.OpOr, c0, c1)
		plan := logical.NewFilter(s, union)
		subs := []SharedSub{
			{Comp: c0, Cols: []int{0, 1}},
			{Comp: c1, Cols: []int{0}},
		}
		return plan, subs
	}
	for _, par := range []int{1, 4} {
		plan, subs := build()
		base, basePer, err := RunShared(plan, st, Options{Parallelism: par, NoSkip: true}, subs)
		if err != nil {
			t.Fatal(err)
		}
		plan2, subs2 := build()
		got, gotPer, err := RunShared(plan2, st, Options{Parallelism: par}, subs2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range subs {
			if rowsKey(gotPer[i]) != rowsKey(basePer[i]) {
				t.Fatalf("par=%d sub %d rows diverge (%d vs %d)", par, i, len(gotPer[i]), len(basePer[i]))
			}
		}
		if got.Metrics.RowsProcessed != base.Metrics.RowsProcessed ||
			got.Metrics.Storage != base.Metrics.Storage {
			t.Fatalf("par=%d fused metrics diverge: processed %d vs %d", par,
				got.Metrics.RowsProcessed, base.Metrics.RowsProcessed)
		}
		if got.Metrics.Skip.PartitionsPruned == 0 {
			t.Fatalf("par=%d shared prefix pruned nothing: %+v", par, got.Metrics.Skip)
		}
	}
}

// TestSkipWithResultCache runs a selective chain twice under the result
// cache: the miss run prunes (and its captured cost is as-if-scanned), the
// hit replays with identical rows and logical metrics and zero new prunes.
func TestSkipWithResultCache(t *testing.T) {
	st := skipFixture(t, []int64{1})
	opts := Options{Parallelism: 2, ResultCacheBytes: 1 << 20}
	mk := func() logical.Operator {
		s := scanOf(t, st, "fact")
		return logical.NewFilter(s, expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("f_v")), expr.Lit(types.Int(300))))
	}
	// The first run only records the fingerprint; the second captures.
	firstSight(t, st, mk(), opts)
	miss, err := RunWith(mk(), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Metrics.ResultCache.Misses != 1 || miss.Metrics.Skip.PartitionsPruned == 0 {
		t.Fatalf("miss run: %+v / %+v", miss.Metrics.ResultCache, miss.Metrics.Skip)
	}
	hit, err := RunWith(mk(), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Metrics.ResultCache.Hits != 1 {
		t.Fatalf("expected a cache hit: %+v", hit.Metrics.ResultCache)
	}
	if rowsKey(hit.Rows) != rowsKey(miss.Rows) {
		t.Fatal("cache hit rows diverge from miss run")
	}
	if hit.Metrics.RowsProcessed != miss.Metrics.RowsProcessed ||
		hit.Metrics.Storage != miss.Metrics.Storage {
		t.Fatalf("cache hit metrics diverge: processed %d vs %d",
			hit.Metrics.RowsProcessed, miss.Metrics.RowsProcessed)
	}
	if hit.Metrics.Skip.PartitionsPruned != 0 {
		t.Fatalf("replay reported physical prunes: %+v", hit.Metrics.Skip)
	}
}
