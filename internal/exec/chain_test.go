package exec

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
)

// TestChainOverNonScanInputs runs Filter/Project stacks above a join, a
// keyed aggregation (HAVING) and a window. The stages pulled over each
// input must match the serial row-at-a-time run in rows and RowsProcessed,
// and the projection above the join must alias its column references
// instead of copying them.
func TestChainOverNonScanInputs(t *testing.T) {
	st := fixture(t)
	sales, item := scanOf(t, st, "sales"), scanOf(t, st, "item")
	qty := expr.Ref(sales.ColumnFor("s_qty"))
	join := &logical.Join{Kind: logical.InnerJoin, Left: sales, Right: item,
		Cond: expr.Eq(expr.Ref(sales.ColumnFor("s_item")), expr.Ref(item.ColumnFor("i_item")))}
	total := expr.NewColumn("total", types.KindInt64)
	keyed := &logical.GroupBy{Input: sales, Keys: []*expr.Column{sales.ColumnFor("s_store")},
		Aggs: []logical.AggAssign{{Col: total, Agg: expr.AggCall{Fn: expr.AggSum, Arg: qty}}}}
	avg := expr.NewColumn("avg_qty", types.KindFloat64)
	window := &logical.Window{Input: sales, Funcs: []logical.WindowAssign{{
		Col: avg, Agg: expr.AggCall{Fn: expr.AggAvg, Arg: qty},
		PartitionBy: []*expr.Column{sales.ColumnFor("s_store")},
	}}}
	plans := map[string]logical.Operator{
		"project-filter-join": &logical.Project{
			Input: logical.NewFilter(join, expr.NewBinary(expr.OpGt, qty, expr.Lit(types.Int(2)))),
			Cols: []logical.Assignment{
				{Col: expr.NewColumn("brand", types.KindString), E: expr.Ref(item.ColumnFor("i_brand"))},
				{Col: expr.NewColumn("q2", types.KindInt64), E: expr.NewBinary(expr.OpMul, qty, expr.Lit(types.Int(2)))},
			},
		},
		"having": logical.NewFilter(keyed, expr.NewBinary(expr.OpGt, expr.Ref(total), expr.Lit(types.Int(30)))),
		"project-window": &logical.Project{Input: window, Cols: []logical.Assignment{
			{Col: expr.NewColumn("q", types.KindInt64), E: qty},
			{Col: expr.NewColumn("dev", types.KindFloat64), E: expr.NewBinary(expr.OpSub, qty, expr.Ref(avg))},
		}},
	}
	for name, plan := range plans {
		if err := logical.Validate(plan); err != nil {
			t.Fatalf("%s: invalid plan: %v", name, err)
		}
		want, err := RunWith(plan, st, Options{Parallelism: 1, BatchSize: 1})
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: reference returned no rows", name)
		}
		for _, opts := range []Options{{Parallelism: 3, BatchSize: 7}, {Parallelism: 8, BatchSize: 1024}} {
			got, err := RunWith(plan, st, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			if rowsText(got.Rows) != rowsText(want.Rows) {
				t.Errorf("%s %+v: rows differ\ngot:\n%s\nwant:\n%s", name, opts, rowsText(got.Rows), rowsText(want.Rows))
			}
			if got.Metrics.RowsProcessed != want.Metrics.RowsProcessed {
				t.Errorf("%s %+v: RowsProcessed = %d, want %d", name, opts, got.Metrics.RowsProcessed, want.Metrics.RowsProcessed)
			}
			if name == "project-filter-join" && got.Metrics.Pipeline.MaterializedBatchesSaved == 0 {
				t.Errorf("%s %+v: the projection above the join copied every batch", name, opts)
			}
		}
	}
}

// TestChainUnderLimit runs LIMIT over a Filter chain whose scan cuts into
// several morsels. The chain scans serially in the LIMIT's pull, so rows
// and RowsProcessed equal the serial run's, and the stack is still one
// fused pipeline.
func TestChainUnderLimit(t *testing.T) {
	st := skipFixture(t, []int64{1})
	s := scanOf(t, st, "fact")
	plan := &logical.Limit{
		Input: logical.NewFilter(s, expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("f_w")), expr.Lit(types.Int(20)))),
		N:     12,
	}
	want, err := RunWith(plan, st, Options{Parallelism: 1, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunWith(plan, st, Options{Parallelism: 4, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 12 || rowsText(got.Rows) != rowsText(want.Rows) {
		t.Fatalf("rows differ from the serial run (%d vs %d rows)", len(got.Rows), len(want.Rows))
	}
	if got.Metrics.RowsProcessed != want.Metrics.RowsProcessed {
		t.Fatalf("RowsProcessed = %d, serial %d", got.Metrics.RowsProcessed, want.Metrics.RowsProcessed)
	}
	if f := got.Metrics.Pipeline.FusedPipelines; f != 1 {
		t.Fatalf("FusedPipelines = %d, want 1", f)
	}
}
