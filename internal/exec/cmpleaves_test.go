package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vec"
)

// cmpLeafSpec is one `col OP lit` (or `lit OP col`) under test.
type cmpLeafSpec struct {
	op      expr.BinOp
	lit     types.Value
	litLeft bool
}

func (s cmpLeafSpec) expr(col *expr.Column) expr.Expr {
	if s.litLeft {
		return expr.NewBinary(s.op, expr.Lit(s.lit), expr.Ref(col))
	}
	return expr.NewBinary(s.op, expr.Ref(col), expr.Lit(s.lit))
}

var cmpOps = []expr.BinOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}

// checkCompareLeaves compiles every spec into one comparison-leaf table over
// column 0 and compares each slot, row by row, with the obviously-right
// model: NULL iff the column value is NULL, else TRUE iff expr.CompareHolds
// over types.Compare with the operands in the order the expression wrote
// them (so flipCmp is under test, not assumed).
func checkCompareLeaves(t testing.TB, b *vec.Batch, col *expr.Column, specs []cmpLeafSpec) {
	t.Helper()
	layout := map[expr.ColumnID]int{col.ID: 0}
	var tab cmpTable
	fns := make([]bitmapFn, len(specs))
	for i, s := range specs {
		var err error
		if fns[i], err = tab.compile(s.expr(col), layout); err != nil {
			t.Fatal(err)
		}
	}
	if len(tab.groups) != 1 {
		t.Fatalf("groups = %d, want 1 (every leaf is on one column)", len(tab.groups))
	}
	tab.invalidate()
	n := b.Len()
	var bm vec.Bitmap
	for i, s := range specs {
		fns[i](b, &bm)
		if bm.Len() != n {
			t.Fatalf("leaf %d: len %d want %d", i, bm.Len(), n)
		}
		wantTrue := 0
		for r := 0; r < n; r++ {
			v := b.Value(0, r)
			var wantT, wantN bool
			switch {
			case v.Null:
				wantN = true
			case s.litLeft:
				wantT = expr.CompareHolds(s.op, types.Compare(s.lit, v))
			default:
				wantT = expr.CompareHolds(s.op, types.Compare(v, s.lit))
			}
			if wantT {
				wantTrue++
			}
			if bm.True(r) != wantT || bm.Null(r) != wantN {
				t.Fatalf("leaf %d of %d (%s) n=%d sel=%v row %d value %v: got (t=%v,n=%v) want (t=%v,n=%v)",
					i, len(specs), s.expr(col), n, b.Sel != nil, r, v, bm.True(r), bm.Null(r), wantT, wantN)
			}
		}
		// A dirty tail would show up in the word scans.
		if got := bm.Count(); got != wantTrue {
			t.Fatalf("leaf %d: Count %d want %d (tail bits set?)", i, got, wantTrue)
		}
		if idx := bm.AppendTrue(nil); len(idx) != wantTrue || (len(idx) > 0 && idx[len(idx)-1] >= n) {
			t.Fatalf("leaf %d: AppendTrue %v beyond %d rows", i, idx, n)
		}
	}
}

// cmpBatch draws n active rows from pool: dense, or through a selection of
// unsorted, repeating physical indices.
func cmpBatch(rng *rand.Rand, pool []types.Value, n int, withSel bool) *vec.Batch {
	phys := n
	if withSel {
		phys = n + 5
	}
	col := make([]types.Value, phys)
	for i := range col {
		col[i] = pool[rng.Intn(len(pool))]
	}
	b := vec.NewDense([][]types.Value{col}, phys)
	if withSel {
		sel := make([]int, n)
		for i := range sel {
			sel[i] = rng.Intn(phys)
		}
		return b.WithSel(sel)
	}
	return b
}

var (
	cmpIntPool = []types.Value{
		types.NullOf(types.KindInt64), types.Int(math.MinInt64), types.Int(math.MaxInt64),
		types.Int(1 << 53), types.Int(1<<53 + 1), types.Int(-1), types.Int(0), types.Int(1), types.Int(7),
	}
	cmpFloatPool = []types.Value{
		types.NullOf(types.KindFloat64), types.Float(math.NaN()), types.Float(0), types.Float(math.Copysign(0, -1)),
		types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(-1.5), types.Float(7),
		types.Float(1 << 53), types.Float(math.MaxInt64),
	}
	cmpDatePool = []types.Value{
		types.NullOf(types.KindDate), types.Date(0), types.Date(-1), types.Date(18000), types.Date(math.MinInt64),
	}
	cmpBoolPool = []types.Value{types.NullOf(types.KindBool), types.Bool(true), types.Bool(false)}
)

func nonNull(pool []types.Value) []types.Value {
	var out []types.Value
	for _, v := range pool {
		if !v.Null {
			out = append(out, v)
		}
	}
	return out
}

// TestCompareLeavesAgainstCompare is the kernel against the reference over
// the whole typed matrix. None of these shapes may reach the generic re-run.
func TestCompareLeavesAgainstCompare(t *testing.T) {
	numLits := append(nonNull(cmpIntPool), nonNull(cmpFloatPool)...)
	cases := []struct {
		kind types.Kind
		pool []types.Value
		lits [][]types.Value
	}{
		{types.KindInt64, cmpIntPool, [][]types.Value{nonNull(cmpIntPool), nonNull(cmpFloatPool), numLits}},
		{types.KindFloat64, cmpFloatPool, [][]types.Value{nonNull(cmpIntPool), nonNull(cmpFloatPool), numLits}},
		{types.KindDate, cmpDatePool, [][]types.Value{nonNull(cmpDatePool)}},
		{types.KindBool, cmpBoolPool, [][]types.Value{nonNull(cmpBoolPool)}},
	}
	before := CompileStats()
	rng := rand.New(rand.NewSource(19))
	for _, c := range cases {
		col := expr.NewColumn("x", c.kind)
		for _, lits := range c.lits {
			for _, k := range []int{1, 2, 18} {
				for opOff := range cmpOps {
					for _, litLeft := range []bool{false, true} {
						specs := make([]cmpLeafSpec, k)
						for i := range specs {
							// K=18 cycles the ops three times over a literal
							// pool of ≤ 17 values, so it carries duplicates.
							specs[i] = cmpLeafSpec{cmpOps[(opOff+i)%len(cmpOps)], lits[(opOff+i/2)%len(lits)], litLeft}
						}
						for _, n := range []int{0, 1, 63, 64, 65, 130, 1024} {
							for _, withSel := range []bool{false, true} {
								checkCompareLeaves(t, cmpBatch(rng, c.pool, n, withSel), col, specs)
							}
						}
					}
				}
			}
		}
	}
	after := CompileStats()
	if after.CompareGenericReruns != before.CompareGenericReruns {
		t.Fatalf("typed matrix reached the generic loop %d times", after.CompareGenericReruns-before.CompareGenericReruns)
	}
	if groups, leaves := after.CompareGroups-before.CompareGroups, after.CompareLeaves-before.CompareLeaves; groups == 0 || leaves <= groups {
		t.Fatalf("groups=%d leaves=%d: siblings did not share groups", groups, leaves)
	}
}

// TestCompareLeavesShareSlots pins slot deduplication: identical (op, lit)
// leaves — also when one is written literal-first — are one slot, and -0 and
// +0 are not merged on their bit patterns' account but still compare equal.
func TestCompareLeavesShareSlots(t *testing.T) {
	col := expr.NewColumn("x", types.KindFloat64)
	specs := []cmpLeafSpec{
		{expr.OpLt, types.Float(5), false},
		{expr.OpGt, types.Float(5), true}, // 5 > x is x < 5
		{expr.OpEq, types.Float(0), false},
		{expr.OpEq, types.Float(math.Copysign(0, -1)), false},
	}
	layout := map[expr.ColumnID]int{col.ID: 0}
	var tab cmpTable
	for _, s := range specs {
		if _, err := tab.compile(s.expr(col), layout); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(tab.groups[0].leaves); got != 3 {
		t.Fatalf("slots = %d, want 3", got)
	}
	checkCompareLeaves(t, cmpBatch(rand.New(rand.NewSource(2)), cmpFloatPool, 200, false), col, specs)
}

// TestCompareLeavesMixedKindRerun proves the generic re-run: a column whose
// blocks mix BIGINT and DOUBLE values is still compared exactly as
// types.Compare would, and the counter says which path did it. A clean block
// of the same batch stays on the typed loops.
func TestCompareLeavesMixedKindRerun(t *testing.T) {
	col := expr.NewColumn("x", types.KindFloat64)
	vals := make([]types.Value, 192)
	for i := range vals {
		switch {
		case i < 64:
			vals[i] = types.Float(float64(i) / 2) // clean DOUBLE block
		case i%3 == 0:
			vals[i] = types.Int(int64(i - 100))
		case i%3 == 1:
			vals[i] = types.Float(float64(i-100) + 0.5)
		default:
			vals[i] = types.NullOf(types.KindFloat64)
		}
	}
	b := vec.NewDense([][]types.Value{vals}, len(vals))
	specs := []cmpLeafSpec{
		{expr.OpLe, types.Int(20), false},
		{expr.OpGt, types.Float(20.5), true},
	}
	before := CompileStats().CompareGenericReruns
	checkCompareLeaves(t, b, col, specs)
	if got := CompileStats().CompareGenericReruns - before; got != 4 {
		t.Fatalf("generic re-runs = %d, want 4 (two mixed blocks × two leaves)", got)
	}
}

// TestCompareLeavesIncomparableStillPanics pins the contract the binder
// relies on: a kind pair types.Compare rejects is not quietly answered.
func TestCompareLeavesIncomparableStillPanics(t *testing.T) {
	col := expr.NewColumn("d", types.KindDate)
	b := vec.NewDense([][]types.Value{{types.Date(3)}}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("DATE column against BIGINT literal did not panic")
		}
	}()
	checkCompareLeaves(t, b, col, []cmpLeafSpec{{expr.OpLt, types.Int(5), false}})
}

// TestCmpColColAgainstCompare runs the column-pair comparison — the same
// block unboxing and loops, fed a second block instead of a literal — against
// the row-at-a-time model over every kind pair types.Compare accepts,
// including the two that stay on the generic loop (strings, and a column
// whose values are not one kind).
func TestCmpColColAgainstCompare(t *testing.T) {
	strPool := []types.Value{types.NullOf(types.KindString), types.String(""), types.String("a"), types.String("b")}
	mixedPool := append(nonNull(cmpIntPool), cmpFloatPool...)
	pairs := []struct {
		name string
		l, r []types.Value
	}{
		{"int/int", cmpIntPool, cmpIntPool},
		{"int/float", cmpIntPool, cmpFloatPool},
		{"float/int", cmpFloatPool, cmpIntPool},
		{"float/float", cmpFloatPool, cmpFloatPool},
		{"date/date", cmpDatePool, cmpDatePool},
		{"bool/bool", cmpBoolPool, cmpBoolPool},
		{"string/string", strPool, strPool},
		{"mixed/float", mixedPool, cmpFloatPool},
	}
	l, r := expr.NewColumn("l", types.KindInt64), expr.NewColumn("r", types.KindInt64)
	layout := map[expr.ColumnID]int{l.ID: 0, r.ID: 1}
	rng := rand.New(rand.NewSource(29))
	for _, p := range pairs {
		for _, op := range cmpOps {
			fn := compileBitmapCmpColCol(expr.NewBinary(op, expr.Ref(l), expr.Ref(r)), layout)
			for _, n := range []int{0, 1, 63, 64, 65, 130} {
				for _, withSel := range []bool{false, true} {
					b := cmpBatch(rng, p.l, n, withSel)
					rcol := make([]types.Value, b.N)
					for i := range rcol {
						rcol[i] = p.r[rng.Intn(len(p.r))]
					}
					b.Cols = append(b.Cols, rcol)
					var bm vec.Bitmap
					fn(b, &bm)
					wantTrue := 0
					for i := 0; i < n; i++ {
						lv, rv := b.Value(0, i), b.Value(1, i)
						wantN := lv.Null || rv.Null
						wantT := !wantN && expr.CompareHolds(op, types.Compare(lv, rv))
						if wantT {
							wantTrue++
						}
						if bm.True(i) != wantT || bm.Null(i) != wantN {
							t.Fatalf("%s %s n=%d sel=%v row %d (%v, %v): got (t=%v,n=%v) want (t=%v,n=%v)",
								p.name, op, n, withSel, i, lv, rv, bm.True(i), bm.Null(i), wantT, wantN)
						}
					}
					if bm.Len() != n || bm.Count() != wantTrue {
						t.Fatalf("%s %s n=%d sel=%v: len %d count %d, want %d and %d", p.name, op, n, withSel, bm.Len(), bm.Count(), n, wantTrue)
					}
				}
			}
		}
	}
}

// TestMaskFamilyPrefixNarrowsSameColumn pins the invalidation rule: prefix
// conjuncts on one column each see a narrower selection than the last, and
// residual leaves on that same column see the survivors only — a result
// carried over from the wider batch would have the wrong length and bits.
func TestMaskFamilyPrefixNarrowsSameColumn(t *testing.T) {
	a, c, _, _, layout := maskTestCols()
	lo := expr.NewBinary(expr.OpGt, expr.Ref(a), expr.Lit(types.Int(20)))
	hi := expr.NewBinary(expr.OpLt, expr.Ref(a), expr.Lit(types.Int(70)))
	masks := []expr.Expr{
		expr.And(lo, hi, expr.NewBinary(expr.OpNe, expr.Ref(a), expr.Lit(types.Int(30)))),
		expr.And(lo, hi, expr.NewBinary(expr.OpGe, expr.Ref(a), expr.Lit(types.Int(45)))),
		expr.And(hi, lo, expr.Or(
			expr.NewBinary(expr.OpLt, expr.Ref(a), expr.Lit(types.Int(33))),
			expr.NewBinary(expr.OpGt, expr.Ref(c), expr.Lit(types.Float(50.5))))),
	}
	fam, err := newMaskFamily(masks, layout)
	if err != nil {
		t.Fatal(err)
	}
	if fam.prefixLen() != 2 || len(fam.residCmp.groups) != 2 {
		t.Fatalf("prefixLen=%d residual groups=%d, want 2 and 2 (a, c)", fam.prefixLen(), len(fam.residCmp.groups))
	}
	rng := rand.New(rand.NewSource(31))
	var batches []*vec.Batch
	for _, n := range []int{1, 64, 65, 200, 1024, 63} {
		batches = append(batches, randomMaskBatch(rng, n))
	}
	checkFamilyAgainstRows(t, masks, layout, batches)
	// The filter shape: one mask, every conjunct is prefix.
	checkFamilyAgainstRows(t, masks[:1], layout, batches)
}

// FuzzCompareLeaves drives the same oracle from fuzzed values, operators and
// literals: the column is seeded from the special-value pool plus the fuzzed
// payloads, so every block is one kind and must stay on the typed loops.
func FuzzCompareLeaves(f *testing.F) {
	f.Add(int64(1), uint16(130), uint8(0), uint8(0), int64(7), 7.0, false)
	f.Add(int64(2), uint16(64), uint8(1), uint8(3), int64(1<<53+1), math.NaN(), true)
	f.Add(int64(3), uint16(1024), uint8(2), uint8(5), int64(math.MinInt64), math.Inf(-1), true)
	f.Add(int64(4), uint16(0), uint8(3), uint8(2), int64(1), math.Copysign(0, -1), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, kindSel, opOff uint8, li int64, lf float64, withSel bool) {
		rng := rand.New(rand.NewSource(seed))
		var kind types.Kind
		var pool, lits []types.Value
		switch kindSel % 4 {
		case 0:
			kind, pool = types.KindInt64, append([]types.Value{types.Int(li), types.Int(li + 1)}, cmpIntPool...)
			lits = []types.Value{types.Int(li), types.Float(lf), types.Float(float64(li))}
		case 1:
			kind, pool = types.KindFloat64, append([]types.Value{types.Float(lf), types.Float(float64(li))}, cmpFloatPool...)
			lits = []types.Value{types.Int(li), types.Float(lf), types.Float(math.Nextafter(lf, 0))}
		case 2:
			kind, pool = types.KindDate, append([]types.Value{types.Date(li)}, cmpDatePool...)
			lits = []types.Value{types.Date(li), types.Date(li - 1)}
		default:
			kind, pool = types.KindBool, cmpBoolPool
			lits = nonNull(cmpBoolPool)
		}
		lits = append(lits, nonNull(pool)...)
		specs := make([]cmpLeafSpec, 1+rng.Intn(18))
		for i := range specs {
			specs[i] = cmpLeafSpec{cmpOps[(int(opOff)+i)%len(cmpOps)], lits[(i+rng.Intn(2))%len(lits)], rng.Intn(2) == 0}
		}
		before := CompileStats().CompareGenericReruns
		checkCompareLeaves(t, cmpBatch(rng, pool, int(n)%1100, withSel), expr.NewColumn("x", kind), specs)
		if got := CompileStats().CompareGenericReruns - before; got != 0 {
			t.Fatalf("single-kind column reached the generic loop %d times", got)
		}
	})
}

// BenchmarkMaskFamilySiblings is the comparison kernel without the 30 s wire
// run: sibling masks of overlap_burst's shape (`q >= lo AND q <= hi AND
// price <= p`, own literals) evaluated as one family over 1024-row batches
// drawn from 128k distinct rows, so the branch predictor cannot memorise
// them. It reports ns per row-compare (rows × K leaves). kind=mixed puts
// BIGINT and DOUBLE values in one column, which sends every block to the
// generic types.Compare loop — the in-tree reference for what the typed
// loops replaced.
func BenchmarkMaskFamilySiblings(b *testing.B) {
	const batchRows, nBatches = 1024, 128
	q := expr.NewColumn("q", types.KindInt64)
	price := expr.NewColumn("price", types.KindFloat64)
	layout := map[expr.ColumnID]int{q.ID: 0, price.ID: 1}
	for _, mixed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(41))
		batches := make([]*vec.Batch, nBatches)
		halves := make([]*vec.Batch, nBatches)
		for i := range batches {
			qs, ps := make([]types.Value, batchRows), make([]types.Value, batchRows)
			var sel []int
			for r := range qs {
				qs[r], ps[r] = types.Int(1+rng.Int63n(100)), types.Float(rng.Float64()*200)
				if mixed && r%2 == 0 {
					qs[r], ps[r] = types.Float(float64(qs[r].I)), types.Int(int64(ps[r].F))
				}
				if rng.Intn(2) == 0 {
					sel = append(sel, r)
				}
			}
			batches[i] = vec.NewDense([][]types.Value{qs, ps}, batchRows)
			halves[i] = batches[i].WithSel(sel)
		}
		for _, k := range []int{1, 6, 18} {
			var masks []expr.Expr
			if k == 1 {
				masks = []expr.Expr{expr.NewBinary(expr.OpGe, expr.Ref(q), expr.Lit(types.Int(40)))}
			}
			for tile := 0; tile < k/3; tile++ {
				lo := int64(1 + rng.Intn(50))
				masks = append(masks, expr.And(
					expr.NewBinary(expr.OpGe, expr.Ref(q), expr.Lit(types.Int(lo))),
					expr.NewBinary(expr.OpLe, expr.Ref(q), expr.Lit(types.Int(lo+30+int64(rng.Intn(20))))),
					expr.NewBinary(expr.OpLe, expr.Ref(price), expr.Lit(types.Float(50+rng.Float64()*100)))))
			}
			for _, in := range []struct {
				name string
				bs   []*vec.Batch
			}{{"dense", batches}, {"sel50", halves}} {
				kind := "typed"
				if mixed {
					kind = "mixed"
				}
				b.Run(fmt.Sprintf("K=%d/%s/kind=%s", k, in.name, kind), func(b *testing.B) {
					fam, err := newMaskFamily(masks, layout)
					if err != nil {
						b.Fatal(err)
					}
					rows := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						bt := in.bs[i%nBatches]
						fam.eval(bt)
						rows += bt.Len()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows*k), "ns/row-compare")
				})
			}
		}
	}
}
