package exec

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
	"repro/internal/vec"
)

// maskTestCols builds the column set and layout the family tests share.
func maskTestCols() (a, c, d, flag *expr.Column, layout map[expr.ColumnID]int) {
	a = expr.NewColumn("a", types.KindInt64)
	c = expr.NewColumn("c", types.KindInt64)
	d = expr.NewColumn("d", types.KindFloat64)
	flag = expr.NewColumn("flag", types.KindBool)
	layout = map[expr.ColumnID]int{a.ID: 0, c.ID: 1, d.ID: 2, flag.ID: 3}
	return
}

func randomMaskBatch(rng *rand.Rand, n int) *vec.Batch {
	cols := make([][]types.Value, 4)
	for i := range cols {
		cols[i] = make([]types.Value, n)
	}
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			cols[0][i] = types.NullOf(types.KindInt64)
		} else {
			cols[0][i] = types.Int(int64(rng.Intn(100)))
		}
		if rng.Intn(8) == 0 {
			cols[1][i] = types.NullOf(types.KindInt64)
		} else {
			cols[1][i] = types.Int(int64(rng.Intn(100)))
		}
		if rng.Intn(8) == 0 {
			cols[2][i] = types.NullOf(types.KindFloat64)
		} else {
			cols[2][i] = types.Float(rng.Float64() * 100)
		}
		if rng.Intn(8) == 0 {
			cols[3][i] = types.NullOf(types.KindBool)
		} else {
			cols[3][i] = types.Bool(rng.Intn(2) == 0)
		}
	}
	b := vec.NewDense(cols, n)
	if rng.Intn(2) == 0 {
		var sel []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				sel = append(sel, i)
			}
		}
		if len(sel) > 0 {
			return b.WithSel(sel)
		}
	}
	return b
}

// checkFamilyAgainstRows compares every mask's family truth bitmap against
// the row engine's IsTrue over gathered rows — the ground truth the whole
// mask machinery must match.
func checkFamilyAgainstRows(t *testing.T, masks []expr.Expr, layout map[expr.ColumnID]int, batches []*vec.Batch) {
	t.Helper()
	fam, err := newMaskFamily(masks, layout)
	if err != nil {
		t.Fatal(err)
	}
	rowFns := make([]evalFn, len(masks))
	for mi, m := range masks {
		if rowFns[mi], err = compileExpr(m, layout); err != nil {
			t.Fatal(err)
		}
	}
	for bi, b := range batches {
		truths := fam.eval(b)
		row := make(Row, b.Width())
		for i := 0; i < b.Len(); i++ {
			b.Gather(i, row)
			for mi := range masks {
				want := rowFns[mi](row).IsTrue()
				if truths[mi].True(i) != want {
					t.Fatalf("mask %d (%s) batch %d row %d: family=%v row-engine=%v",
						mi, masks[mi], bi, i, truths[mi].True(i), want)
				}
			}
		}
	}
}

// TestMaskFamilyFactoring pins the shared-prefix factoring: sibling masks
// that share conjuncts (in any operand order) evaluate the shared part
// once, and every mask's bits still match the row engine.
func TestMaskFamilyFactoring(t *testing.T) {
	a, c, _, flag, layout := maskTestCols()
	p := expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(20)))
	q := expr.NewBinary(expr.OpLt, expr.Ref(c), expr.Lit(types.Int(70)))
	r1 := expr.Ref(flag)
	r2 := expr.NewBinary(expr.OpEq, expr.Ref(a), expr.Ref(c))

	masks := []expr.Expr{
		expr.And(p, q, r1),
		expr.And(p, q, r2),
		expr.And(q, p), // commutated: still shares both conjuncts
	}
	fam, err := newMaskFamily(masks, layout)
	if err != nil {
		t.Fatal(err)
	}
	if got := fam.prefixLen(); got != 2 {
		t.Fatalf("prefixLen = %d, want 2 (p and q shared by every mask)", got)
	}
	if len(fam.residFns) != 2 {
		t.Fatalf("residFns = %d, want 2 (r1, r2)", len(fam.residFns))
	}
	if len(fam.maskResids[2]) != 0 {
		t.Fatalf("mask 2 residuals = %v, want none", fam.maskResids[2])
	}

	rng := rand.New(rand.NewSource(7))
	batches := []*vec.Batch{
		randomMaskBatch(rng, 1),
		randomMaskBatch(rng, 63),
		randomMaskBatch(rng, 64),
		randomMaskBatch(rng, 200),
	}
	checkFamilyAgainstRows(t, masks, layout, batches)

	// The shared prefix must have eliminated rows for more than one mask.
	fam.eval(batches[3])
	if fam.hits() == 0 {
		t.Error("prefixHits stayed 0 despite a selective shared prefix")
	}
}

// TestMaskFamilyRandom cross-checks family evaluation against the row
// engine over randomly composed mask sets — including single-mask families
// (the filter path), disjoint families (empty prefix), and masks that
// degenerate to TRUE or contradiction.
func TestMaskFamilyRandom(t *testing.T) {
	a, c, d, flag, layout := maskTestCols()
	pool := []expr.Expr{
		expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(20))),
		expr.NewBinary(expr.OpLe, expr.Ref(c), expr.Lit(types.Int(70))),
		expr.NewBinary(expr.OpLt, expr.Ref(d), expr.Lit(types.Float(50))),
		expr.Ref(flag),
		&expr.Not{E: expr.Ref(flag)},
		expr.NewBinary(expr.OpEq, expr.Ref(a), expr.Ref(c)),
		&expr.IsNull{E: expr.Ref(d)},
		&expr.IsNull{E: expr.Ref(a), Neg: true},
		expr.Or(
			expr.NewBinary(expr.OpLt, expr.Ref(a), expr.Lit(types.Int(10))),
			expr.NewBinary(expr.OpGt, expr.Ref(c), expr.Lit(types.Int(90)))),
		&expr.InList{E: expr.Ref(a), List: []expr.Expr{expr.Lit(types.Int(3)), expr.Lit(types.Int(33))}},
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		nMasks := 1 + rng.Intn(5)
		masks := make([]expr.Expr, nMasks)
		for mi := range masks {
			var conjs []expr.Expr
			for _, p := range pool {
				if rng.Intn(3) == 0 {
					conjs = append(conjs, p)
				}
			}
			masks[mi] = expr.And(conjs...) // empty set yields TRUE
		}
		batches := []*vec.Batch{randomMaskBatch(rng, 1+rng.Intn(150))}
		checkFamilyAgainstRows(t, masks, layout, batches)
	}
}

// TestMaskFamilyScratchReuse evaluates batches of shrinking and growing
// sizes through one family instance: scratch reuse across calls must not
// leak bits between batches.
func TestMaskFamilyScratchReuse(t *testing.T) {
	a, c, _, flag, layout := maskTestCols()
	p := expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(50)))
	masks := []expr.Expr{
		expr.And(p, expr.Ref(flag)),
		expr.And(p, expr.NewBinary(expr.OpLt, expr.Ref(c), expr.Lit(types.Int(30)))),
	}
	rng := rand.New(rand.NewSource(5))
	batches := []*vec.Batch{
		randomMaskBatch(rng, 130),
		randomMaskBatch(rng, 7),
		randomMaskBatch(rng, 130),
		randomMaskBatch(rng, 64),
	}
	checkFamilyAgainstRows(t, masks, layout, batches)
}

// TestCompileAggsCanonicalDedup shows the satellite fix firing: masks that
// are equal only modulo commutativity share one mask slot, and a mask that
// simplifies to TRUE compiles as unmasked.
func TestCompileAggsCanonicalDedup(t *testing.T) {
	a, c, _, _, _ := maskTestCols()
	p := expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(20)))
	q := expr.NewBinary(expr.OpLt, expr.Ref(c), expr.Lit(types.Int(70)))
	aggs := []logical.AggAssign{
		{Col: expr.NewColumn("x", types.KindInt64),
			Agg: expr.AggCall{Fn: expr.AggCountStar, Mask: expr.And(p, q)}},
		{Col: expr.NewColumn("y", types.KindInt64),
			Agg: expr.AggCall{Fn: expr.AggCountStar, Mask: expr.And(q, p)}},
		{Col: expr.NewColumn("z", types.KindInt64),
			Agg: expr.AggCall{Fn: expr.AggCountStar, Mask: expr.Or(p, expr.TrueExpr())}},
	}
	ca := compileAggs(aggs)
	if len(ca.maskAst) != 1 {
		t.Fatalf("distinct masks = %d, want 1: `p AND q` and `q AND p` must dedup", len(ca.maskAst))
	}
	if ca.aggs[0].maskIdx != ca.aggs[1].maskIdx {
		t.Errorf("commuted masks got different slots: %d vs %d", ca.aggs[0].maskIdx, ca.aggs[1].maskIdx)
	}
	if ca.aggs[2].maskIdx != -1 {
		t.Errorf("`p OR TRUE` should simplify to an unmasked aggregate, got slot %d", ca.aggs[2].maskIdx)
	}
}

// TestBitmapCompilerMatchesValueCompiler sweeps every boolean expression
// class through both compilers: TRUE bits must equal IsTrue and NULL bits
// must equal Null, dense and under selection.
func TestBitmapCompilerMatchesValueCompiler(t *testing.T) {
	a, c, d, flag, layout := maskTestCols()
	exprs := []expr.Expr{
		expr.Lit(types.Bool(true)),
		expr.Lit(types.Bool(false)),
		expr.Lit(types.NullOf(types.KindBool)),
		expr.Ref(flag),
		&expr.Not{E: expr.Ref(flag)},
		&expr.Not{E: &expr.Not{E: expr.Ref(flag)}},
		&expr.IsNull{E: expr.Ref(a)},
		&expr.IsNull{E: expr.Ref(a), Neg: true},
		&expr.IsNull{E: expr.NewBinary(expr.OpAdd, expr.Ref(a), expr.Ref(c))}, // non-column inner: fallback
		expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(30))),
		expr.NewBinary(expr.OpGt, expr.Lit(types.Int(30)), expr.Ref(a)), // literal-first
		expr.NewBinary(expr.OpEq, expr.Ref(a), expr.Lit(types.NullOf(types.KindInt64))),
		expr.NewBinary(expr.OpLe, expr.Ref(a), expr.Ref(c)),
		expr.NewBinary(expr.OpLt, expr.NewBinary(expr.OpAdd, expr.Ref(a), expr.Ref(c)), expr.Lit(types.Int(80))), // generic cmp
		expr.And(expr.Ref(flag), expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(10)))),
		expr.Or(expr.Ref(flag), &expr.IsNull{E: expr.Ref(d)}),
		expr.And(
			expr.Or(expr.Ref(flag), expr.NewBinary(expr.OpLt, expr.Ref(c), expr.Lit(types.Int(40)))),
			&expr.Not{E: &expr.IsNull{E: expr.Ref(a)}},
			expr.NewBinary(expr.OpNe, expr.Ref(a), expr.Ref(c))),
		&expr.InList{E: expr.Ref(a), List: []expr.Expr{expr.Lit(types.Int(5)), expr.Lit(types.Int(50))}}, // fallback
		&expr.Like{E: expr.Lit(types.String("hello")), Pattern: "he%"},                                   // fallback, constant
	}
	rng := rand.New(rand.NewSource(23))
	batches := []*vec.Batch{
		randomMaskBatch(rng, 65),
		randomMaskBatch(rng, 128),
		randomMaskBatch(rng, 9),
	}
	for _, e := range exprs {
		mfn, err := compileBitmapExpr(e, layout)
		if err != nil {
			t.Fatalf("bitmap-compile %s: %v", e, err)
		}
		bfn, err := compileBatchExpr(e, layout)
		if err != nil {
			t.Fatalf("batch-compile %s: %v", e, err)
		}
		for bi, b := range batches {
			var bm vec.Bitmap
			mfn(b, &bm)
			out := make([]types.Value, b.Len())
			bfn(b, out)
			for i := range out {
				if bm.True(i) != out[i].IsTrue() || bm.Null(i) != out[i].Null {
					t.Fatalf("%s batch %d row %d: bitmap (t=%v,n=%v) value %v",
						e, bi, i, bm.True(i), bm.Null(i), out[i])
				}
			}
		}
	}
}
