package exec

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
	"repro/internal/vec"
)

// TestBatchCompileMatchesRowCompile drives the batch compiler and the row
// compiler over the same batches — dense and with selection vectors — and
// requires value-for-value agreement for every expression class, including
// the row-fallback nodes (CASE, IN, LIKE).
func TestBatchCompileMatchesRowCompile(t *testing.T) {
	a := expr.NewColumn("a", types.KindInt64)
	s := expr.NewColumn("s", types.KindString)
	b := expr.NewColumn("b", types.KindBool)
	layout := map[expr.ColumnID]int{a.ID: 0, s.ID: 1, b.ID: 2}

	exprs := []expr.Expr{
		expr.Lit(types.Int(42)),
		expr.Ref(a),
		expr.NewBinary(expr.OpAdd, expr.Ref(a), expr.Lit(types.Int(5))),
		expr.NewBinary(expr.OpSub, expr.Ref(a), expr.Lit(types.Float(0.5))),
		expr.NewBinary(expr.OpMul, expr.Ref(a), expr.Ref(a)),
		expr.NewBinary(expr.OpDiv, expr.Ref(a), expr.Lit(types.Int(0))),
		expr.NewBinary(expr.OpDiv, expr.Ref(a), expr.Lit(types.Int(4))),
		expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(3))),
		expr.NewBinary(expr.OpLe, expr.Ref(a), expr.Lit(types.Int(3))),
		expr.NewBinary(expr.OpEq, expr.Ref(s), expr.Lit(types.String("x"))),
		expr.NewBinary(expr.OpNe, expr.Ref(s), expr.Lit(types.String("x"))),
		expr.NewBinary(expr.OpAnd, expr.Ref(b), expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(0)))),
		expr.NewBinary(expr.OpOr, expr.Ref(b), &expr.IsNull{E: expr.Ref(a)}),
		&expr.Not{E: expr.Ref(b)},
		&expr.IsNull{E: expr.Ref(a)},
		&expr.IsNull{E: expr.Ref(a), Neg: true},
		&expr.Coalesce{Args: []expr.Expr{expr.Ref(a), expr.Lit(types.Int(9))}},
		&expr.Coalesce{Args: []expr.Expr{expr.Lit(types.NullOf(types.KindInt64)), expr.Ref(a), expr.Lit(types.Int(9))}},
		&expr.InList{E: expr.Ref(a), List: []expr.Expr{expr.Lit(types.Int(1)), expr.Lit(types.Int(7))}},
		&expr.Like{E: expr.Ref(s), Pattern: "he%o"},
		&expr.Case{Whens: []expr.When{
			{Cond: expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(0))), Then: expr.Lit(types.String("pos"))},
		}, Else: expr.Lit(types.String("neg"))},
	}

	cols := [][]types.Value{
		{types.Int(7), types.Int(-2), types.NullOf(types.KindInt64), types.Int(1), types.Int(0)},
		{types.String("hello"), types.String("x"), types.NullOf(types.KindString), types.String(""), types.String("heo")},
		{types.Bool(true), types.Bool(false), types.NullOf(types.KindBool), types.Bool(true), types.Bool(false)},
	}
	batches := []*vec.Batch{
		vec.NewDense(cols, 5),
		vec.NewDense(cols, 5).WithSel([]int{0, 2, 4}),
		vec.NewDense(cols, 5).WithSel([]int{3}),
	}

	for _, e := range exprs {
		bfn, err := compileBatchExpr(e, layout)
		if err != nil {
			t.Fatalf("batch-compile %s: %v", e, err)
		}
		rfn, err := compileExpr(e, layout)
		if err != nil {
			t.Fatalf("row-compile %s: %v", e, err)
		}
		for bi, batch := range batches {
			out := make([]types.Value, batch.Len())
			bfn(batch, out)
			row := make(Row, batch.Width())
			for i := 0; i < batch.Len(); i++ {
				batch.Gather(i, row)
				want := rfn(row)
				if !out[i].Equal(want) {
					t.Errorf("%s batch %d row %d: batch=%v row=%v", e, bi, i, out[i], want)
				}
			}
		}
	}
}

func TestBatchCompileUnboundColumn(t *testing.T) {
	a := expr.NewColumn("a", types.KindInt64)
	if _, err := compileBatchExpr(expr.Ref(a), map[expr.ColumnID]int{}); err == nil {
		t.Error("unbound column must fail at compile time")
	}
}

// TestExecOptionEquivalence runs representative plans under row-at-a-time
// (BatchSize 1, serial) and vectorized-parallel options and requires
// byte-identical rows in identical order, plus identical metric totals.
func TestExecOptionEquivalence(t *testing.T) {
	st := fixture(t)
	sales := scanOf(t, st, "sales")
	item := scanOf(t, st, "item")
	sCols, iCols := sales.Cols, item.Cols

	plans := map[string]logical.Operator{
		"scan": sales,
		"filter-project": &logical.Project{
			Input: &logical.Filter{
				Input: sales,
				Cond:  expr.NewBinary(expr.OpGt, expr.Ref(sCols[2]), expr.Lit(types.Int(3))),
			},
			Cols: []logical.Assignment{
				{Col: expr.NewColumn("q2", types.KindInt64),
					E: expr.NewBinary(expr.OpMul, expr.Ref(sCols[2]), expr.Lit(types.Int(2)))},
			},
		},
		"join-groupby": &logical.GroupBy{
			Input: &logical.Join{
				Kind: logical.InnerJoin, Left: sales, Right: item,
				Cond: expr.NewBinary(expr.OpEq, expr.Ref(sCols[0]), expr.Ref(iCols[0])),
			},
			Keys: []*expr.Column{iCols[1]},
			Aggs: []logical.AggAssign{
				{Col: expr.NewColumn("total", types.KindInt64),
					Agg: expr.AggCall{Fn: expr.AggSum, Arg: expr.Ref(sCols[2])}},
			},
		},
		"sort-limit": &logical.Limit{
			Input: &logical.Sort{
				Input: sales,
				Keys:  []logical.SortKey{{E: expr.Ref(sCols[2]), Desc: true}},
			},
			N: 5,
		},
	}

	configs := []Options{
		{Parallelism: 1, BatchSize: 1},
		{Parallelism: 1, BatchSize: 3},
		{Parallelism: 4, BatchSize: 2},
		{Parallelism: 0, BatchSize: 0}, // defaults
	}
	for name, plan := range plans {
		if err := logical.Validate(plan); err != nil {
			t.Fatalf("%s: invalid plan: %v", name, err)
		}
		var want *Result
		for _, opts := range configs {
			res, err := RunWith(plan, st, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			if want == nil {
				want = res
				continue
			}
			if got, exp := rowsText(res.Rows), rowsText(want.Rows); got != exp {
				t.Errorf("%s %+v: rows differ\ngot:\n%s\nwant:\n%s", name, opts, got, exp)
			}
			if res.Metrics.RowsProcessed != want.Metrics.RowsProcessed {
				t.Errorf("%s %+v: RowsProcessed=%d want %d",
					name, opts, res.Metrics.RowsProcessed, want.Metrics.RowsProcessed)
			}
			if res.Metrics.Storage.BytesScanned != want.Metrics.Storage.BytesScanned {
				t.Errorf("%s %+v: BytesScanned=%d want %d",
					name, opts, res.Metrics.Storage.BytesScanned, want.Metrics.Storage.BytesScanned)
			}
		}
	}
}

// TestParallelScanEarlyExit makes sure a consumer that abandons a
// morsel-parallel chain mid-stream stops cleanly: EnforceSingleRow over a
// multi-morsel scan fails on its second row, and the run's closers stop
// every worker (the race detector on CI would flag leaked workers touching
// metrics). A LIMIT over the scan returns the serial prefix.
func TestParallelScanEarlyExit(t *testing.T) {
	st := fixture(t)
	sales := scanOf(t, st, "sales")
	base := runtime.NumGoroutine()
	esr := &logical.EnforceSingleRow{Input: logical.NewFilter(sales,
		expr.NewBinary(expr.OpGe, expr.Ref(sales.ColumnFor("s_qty")), expr.Lit(types.Int(0))))}
	if _, err := RunWith(esr, st, Options{Parallelism: 4, BatchSize: 2}); !errors.Is(err, errTooManyRows) {
		t.Fatalf("err = %v, want errTooManyRows", err)
	}
	waitGoroutines(t, base)

	plan := &logical.Limit{Input: sales, N: 2}
	res, err := RunWith(plan, st, Options{Parallelism: 4, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	serial, err := RunWith(plan, st, Options{Parallelism: 1, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rowsText(res.Rows) != rowsText(serial.Rows) {
		t.Errorf("parallel limit prefix differs from serial")
	}
}

func rowsText(rows []Row) string {
	var b strings.Builder
	for _, r := range rows {
		for j, v := range r {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
