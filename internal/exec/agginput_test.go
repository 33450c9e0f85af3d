package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
	"repro/internal/vec"
)

// aggInputCols is the input the aggInput oracle test aggregates over: an
// int, a float and a date measure, each salted with the values accumulate
// kernels get wrong first, plus a small int key for the masks.
func aggInputCols() (i, f, d, k *expr.Column, layout map[expr.ColumnID]int) {
	i = expr.NewColumn("i", types.KindInt64)
	f = expr.NewColumn("f", types.KindFloat64)
	d = expr.NewColumn("d", types.KindDate)
	k = expr.NewColumn("k", types.KindInt64)
	layout = map[expr.ColumnID]int{i.ID: 0, f.ID: 1, d.ID: 2, k.ID: 3}
	return
}

func aggInputBatch(rng *rand.Rand, n int, withSel bool) *vec.Batch {
	ints := []types.Value{
		types.NullOf(types.KindInt64), types.Int(0), types.Int(-1),
		types.Int(math.MinInt64), types.Int(math.MaxInt64),
	}
	floats := []types.Value{
		types.NullOf(types.KindFloat64), types.Float(math.NaN()), types.Float(0),
		types.Float(math.Copysign(0, -1)), types.Float(math.Inf(1)), types.Float(1e300),
	}
	dates := []types.Value{types.NullOf(types.KindDate), types.Date(0), types.Date(-1), types.Date(19000)}
	pick := func(edge []types.Value, fresh func() types.Value) types.Value {
		if rng.Intn(3) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return fresh()
	}
	cols := make([][]types.Value, 4)
	for c := range cols {
		cols[c] = make([]types.Value, n)
	}
	for r := 0; r < n; r++ {
		cols[0][r] = pick(ints, func() types.Value { return types.Int(int64(rng.Intn(200) - 100)) })
		cols[1][r] = pick(floats, func() types.Value { return types.Float(rng.NormFloat64() * 1e3) })
		cols[2][r] = pick(dates, func() types.Value { return types.Date(int64(rng.Intn(20000))) })
		cols[3][r] = pick(ints[:2], func() types.Value { return types.Int(int64(rng.Intn(8))) })
	}
	b := vec.NewDense(cols, n)
	if !withSel || n == 0 {
		return b
	}
	// Arbitrary order, repeated physical rows: a selection is a list, not a
	// set, and every consumer must treat it that way.
	sel := make([]int, n)
	for j := range sel {
		sel[j] = rng.Intn(n)
	}
	return b.WithSel(sel)
}

func sameValueBits(a, b types.Value) bool {
	return a.Kind == b.Kind && a.Null == b.Null && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestAggInputMatchesRowOracle is the property the masked-accumulate kernels
// will have to keep: for every aggregate, the rows and argument values
// aggInput.input yields and the state aggState.addAll folds them into equal
// the obviously-right reference — expr.Eval of the aggregate's own
// (un-canonicalized) mask and argument, one row at a time, into
// aggState.add — on both mask engines, bit for bit.
func TestAggInputMatchesRowOracle(t *testing.T) {
	ci, cf, cd, ck, layout := aggInputCols()
	p := expr.NewBinary(expr.OpGt, expr.Ref(ck), expr.Lit(types.Int(3)))
	q := expr.NewBinary(expr.OpLt, expr.Ref(ci), expr.Lit(types.Int(50)))
	r := expr.NewBinary(expr.OpGe, expr.Ref(cf), expr.Lit(types.Float(0)))
	args := []expr.Expr{
		expr.Ref(ci), expr.Ref(cf), expr.Ref(cd),
		expr.NewBinary(expr.OpMul, expr.Ref(cf), expr.Lit(types.Float(2))),
	}
	// Every function over every argument kind it is defined for.
	var calls []expr.AggCall
	for _, arg := range args {
		calls = append(calls, expr.AggCall{Fn: expr.AggCount, Arg: arg},
			expr.AggCall{Fn: expr.AggMin, Arg: arg}, expr.AggCall{Fn: expr.AggMax, Arg: arg})
		if arg.Type() != types.KindDate {
			calls = append(calls, expr.AggCall{Fn: expr.AggSum, Arg: arg}, expr.AggCall{Fn: expr.AggAvg, Arg: arg})
		}
	}
	calls = append(calls, expr.AggCall{Fn: expr.AggCountStar})

	maskSets := []struct {
		name  string
		masks []expr.Expr // assigned to the calls round-robin
		slots int
	}{
		{"unmasked", []expr.Expr{nil}, 0},
		{"one", []expr.Expr{p}, 1},
		{"duplicates", []expr.Expr{p, q, p, nil, q}, 2},
		{"commuted", []expr.Expr{expr.And(p, q), expr.And(q, p)}, 1},
		{"folds-to-true", []expr.Expr{expr.Or(p, expr.TrueExpr()), r}, 1},
		{"family", []expr.Expr{expr.And(p, q), expr.And(p, r), expr.And(p, expr.NotNull(expr.Ref(cd))), p, nil}, 4},
	}
	lengths := []int{0, 1, 63, 64, 65, 1024}

	for _, ms := range maskSets {
		aggs := make([]logical.AggAssign, len(calls))
		for ai, call := range calls {
			call.Mask = ms.masks[ai%len(ms.masks)]
			aggs[ai] = logical.AggAssign{Col: expr.NewColumn(fmt.Sprintf("o%d", ai), call.ResultType()), Agg: call}
		}
		for _, naive := range []bool{false, true} {
			name := fmt.Sprintf("%s/naive=%v", ms.name, naive)
			spec := newAggInputSpec(aggs, layout, naive)
			if got := len(spec.aggs.maskAst); got != ms.slots {
				t.Fatalf("%s: %d mask slots, want %d", name, got, ms.slots)
			}
			in, err := spec.instantiate()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := make([]aggState, len(aggs))
			want := make([]aggState, len(aggs))
			rng := rand.New(rand.NewSource(23))
			env := &expr.SlotEnv{Slots: layout, Row: make(Row, 4)}
			for _, n := range lengths {
				for _, withSel := range []bool{false, true} {
					b := aggInputBatch(rng, n, withSel)
					in.evalMasks(b)
					for ai := range aggs {
						call := aggs[ai].Agg
						var wantLog []int
						var wantVals []types.Value
						for li := 0; li < b.Len(); li++ {
							b.Gather(li, env.Row)
							if call.Mask != nil && !expr.Eval(call.Mask, env).IsTrue() {
								continue
							}
							var v types.Value
							if call.Arg != nil {
								v = expr.Eval(call.Arg, env)
							}
							wantLog = append(wantLog, li)
							wantVals = append(wantVals, v)
							want[ai].add(call.Fn, v)
						}
						where := fmt.Sprintf("%s n=%d sel=%v agg %d (%s)", name, n, withSel, ai, call)
						masked := spec.aggs.aggs[ai].maskIdx >= 0
						sub, mlog, vals, ok := in.input(ai, b)
						if ok != (!masked || len(wantLog) > 0) {
							t.Fatalf("%s: ok = %v with %d admitted rows", where, ok, len(wantLog))
						}
						if !ok {
							continue
						}
						// (An empty unmasked batch may evaluate to a nil vector.)
						if sub.Len() != len(wantLog) || (mlog != nil) != masked ||
							(sub.Len() > 0 && (vals != nil) != (call.Arg != nil)) {
							t.Fatalf("%s: %d rows (want %d), mlog set %v, vals set %v",
								where, sub.Len(), len(wantLog), mlog != nil, vals != nil)
						}
						for j, li := range wantLog {
							if sub.RowIdx(j) != b.RowIdx(li) || (masked && mlog[j] != li) {
								t.Fatalf("%s: input row %d is not logical row %d", where, j, li)
							}
							if vals != nil && !sameValueBits(vals[j], wantVals[j]) {
								t.Fatalf("%s: row %d argument %v, want %v", where, j, vals[j], wantVals[j])
							}
						}
						got[ai].addAll(call.Fn, vals, sub.Len())
					}
				}
			}
			for ai := range aggs {
				call := aggs[ai].Agg
				if g, w := got[ai].result(call), want[ai].result(call); !sameValueBits(g, w) {
					t.Errorf("%s: %s = %v, want %v", name, call, g, w)
				}
			}
		}
	}
}
