package exec

import (
	"math"
	"math/bits"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vec"
)

// cmpTable is the comparison-leaf table of a set of bitmap closures that are
// always evaluated over the same batch: one lone compiled expression, or all
// residual conjuncts of a mask family. Every `col OP literal` leaf in those
// expressions — however deep under AND/OR/NOT — registers in the group of
// its column, and a group is evaluated for all of its leaves the first time
// any of them is asked for: the column is unboxed once per 64-row block and
// each sibling literal costs one branch-free pass over the unboxed block.
// Fusion makes such siblings by construction (N fused predicates differ only
// in their literals), so the column pass is the work N queries share.
//
// Whoever owns the table calls invalidate whenever the batch its closures
// are about to see changes. Like all compiled scratch a table is bound to
// one goroutine.
type cmpTable struct {
	groups []*cmpGroup
}

// cmpGroup holds the leaves of one column and their result bitmaps for the
// batch the group was last evaluated over.
type cmpGroup struct {
	col    int
	leaves []cmpLeaf
	valid  bool
}

// cmpLeaf is one distinct `col OP lit` and its result for the group's batch.
type cmpLeaf struct {
	op  expr.BinOp
	lit types.Value
	out vec.Bitmap
}

// cmpLoop is one of the three loops the six operators reduce to (with an
// inversion). All are written from x<c and x>c only, which is what keeps
// types.Compare's ordering for NaN: it compares "equal" to everything.
type cmpLoop uint8

const (
	loopLt cmpLoop = iota // x < c
	loopGt                // x > c
	loopNe                // x < c || x > c
)

// cmpKernel maps a comparison operator to its loop and inversion.
func cmpKernel(op expr.BinOp) (cmpLoop, bool) {
	switch op {
	case expr.OpLt:
		return loopLt, false
	case expr.OpGe:
		return loopLt, true
	case expr.OpGt:
		return loopGt, false
	case expr.OpLe:
		return loopGt, true
	case expr.OpNe:
		return loopNe, false
	default: // OpEq
		return loopNe, true
	}
}

// leaf registers `column idx OP lit` (lit non-NULL and not a string) and
// returns the closure that hands back its slot. Identical leaves share one.
func (t *cmpTable) leaf(idx int, op expr.BinOp, lit types.Value) bitmapFn {
	var g *cmpGroup
	for _, x := range t.groups {
		if x.col == idx {
			g = x
		}
	}
	if g == nil {
		g = &cmpGroup{col: idx}
		t.groups = append(t.groups, g)
		cmpGroupsBuilt.Add(1)
	}
	li := -1
	for i := range g.leaves {
		if o := &g.leaves[i]; o.op == op && o.lit.Kind == lit.Kind && o.lit.I == lit.I &&
			math.Float64bits(o.lit.F) == math.Float64bits(lit.F) {
			li = i
		}
	}
	if li < 0 {
		li = len(g.leaves)
		g.leaves = append(g.leaves, cmpLeaf{op: op, lit: lit})
		cmpLeavesBuilt.Add(1)
	}
	return func(b *vec.Batch, out *vec.Bitmap) {
		if !g.valid {
			g.eval(b)
			g.valid = true
		}
		out.CopyFrom(&g.leaves[li].out)
	}
}

// invalidate drops every group's results; the next leaf asked for
// re-evaluates its group over the batch it is given.
func (t *cmpTable) invalidate() {
	for _, g := range t.groups {
		g.valid = false
	}
}

// bind wraps the root closure of a lone expression so that each call — each
// new batch — starts from an invalidated table.
func (t *cmpTable) bind(fn bitmapFn) bitmapFn {
	if len(t.groups) == 0 {
		return fn
	}
	return func(b *vec.Batch, out *vec.Bitmap) {
		t.invalidate()
		fn(b, out)
	}
}

// eval computes every leaf of the group over b's active rows.
func (g *cmpGroup) eval(b *vec.Batch) {
	n := b.Len()
	for i := range g.leaves {
		g.leaves[i].out.Reset(n)
	}
	col := b.Cols[g.col]
	var blk cmpBlock
	reruns := int64(0)
	for base, wi := 0, 0; base < n; base, wi = base+64, wi+1 {
		blk.load(col, b.Sel, base, min(64, n-base))
		for i := range g.leaves {
			lf := &g.leaves[i]
			w, ok := lf.word(&blk)
			if !ok {
				// Mixed-kind block or a kind pair the typed loops do not
				// cover: types.Compare decides (and panics on incomparable
				// kinds, as it always has).
				reruns++
				w = cmpWordGeneric(lf.op, col, nil, lf.lit, b.Sel, base, blk.m)
			}
			lf.out.SetWord(wi, w, blk.nulls)
		}
	}
	if reruns > 0 {
		cmpGenericReruns.Add(reruns)
	}
}

// word computes the leaf's truth word over one unboxed block, or reports
// that the typed loops cannot. Bits of NULL rows and bits past the block's
// length are unspecified; Bitmap.SetWord drops them.
func (lf *cmpLeaf) word(k *cmpBlock) (uint64, bool) {
	loop, inv := cmpKernel(lf.op)
	var w uint64
	switch lk := lf.lit.Kind; {
	case k.allNull:
		return 0, true
	case k.mixed:
		return 0, false
	case k.kind == lk && lk != types.KindFloat64:
		// Same-kind integer payloads (BIGINT, DATE, BOOLEAN) compare on I
		// and never pass through float64, which cannot hold 2^53+1.
		w = cmpWordLit(loop, &k.iv, k.m, lf.lit.I)
	case lk.IsNumeric():
		fs, ok := k.floats()
		if !ok {
			return 0, false
		}
		w = cmpWordLit(loop, fs, k.m, lf.lit.AsFloat())
	default:
		return 0, false
	}
	if inv {
		w = ^w
	}
	return w, true
}

// cmpBlock is up to 64 active rows of one column, unboxed: the integer and
// float payloads side by side, a NULL word, and the one kind the non-NULL
// rows have (mixed when they do not agree).
type cmpBlock struct {
	iv       [64]int64
	fv       [64]float64
	m        int
	nulls    uint64
	kind     types.Kind
	allNull  bool
	mixed    bool
	promoted bool // fv holds float64(iv) for a BIGINT block
}

// load unboxes rows [base, base+m) of b's active rows.
func (k *cmpBlock) load(col []types.Value, sel []int, base, m int) {
	var nulls, kinds uint64
	if sel == nil {
		vs := col[base : base+m]
		for j := range vs {
			v := &vs[j]
			k.iv[j&63], k.fv[j&63] = v.I, v.F
			nb := b2u(v.Null)
			nulls |= nb << (uint(j) & 63)
			kinds |= (1 << (v.Kind & 63)) & (nb - 1)
		}
	} else {
		for j, r := range sel[base : base+m] {
			v := &col[r]
			k.iv[j&63], k.fv[j&63] = v.I, v.F
			nb := b2u(v.Null)
			nulls |= nb << (uint(j) & 63)
			kinds |= (1 << (v.Kind & 63)) & (nb - 1)
		}
	}
	k.m, k.nulls, k.promoted = m, nulls, false
	k.allNull = kinds == 0
	k.mixed = kinds&(kinds-1) != 0
	k.kind = types.Kind(bits.TrailingZeros64(kinds))
	if k.allNull || k.mixed {
		k.kind = types.KindUnknown
	}
}

// floats returns a numeric block as float64s, promoting BIGINT payloads the
// way types.Compare does for an int/float mix.
func (k *cmpBlock) floats() (*[64]float64, bool) {
	switch k.kind {
	case types.KindFloat64:
		return &k.fv, true
	case types.KindInt64:
		if !k.promoted {
			for j, x := range k.iv[:k.m] {
				k.fv[j&63] = float64(x)
			}
			k.promoted = true
		}
		return &k.fv, true
	}
	return nil, false
}

func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// cmpWordLit runs one loop over the first m values of a block against a
// constant; bit j of the result is the loop's test on xs[j].
func cmpWordLit[T int64 | float64](loop cmpLoop, xs *[64]T, m int, c T) uint64 {
	var w uint64
	switch loop {
	case loopLt:
		for j, x := range xs[:m] {
			w |= b2u(x < c) << (uint(j) & 63)
		}
	case loopGt:
		for j, x := range xs[:m] {
			w |= b2u(x > c) << (uint(j) & 63)
		}
	default:
		for j, x := range xs[:m] {
			w |= (b2u(x < c) | b2u(x > c)) << (uint(j) & 63)
		}
	}
	return w
}

// cmpWordCol is cmpWordLit against a second block instead of a constant.
func cmpWordCol[T int64 | float64](loop cmpLoop, xs, ys *[64]T, m int) uint64 {
	var w uint64
	switch loop {
	case loopLt:
		for j, x := range xs[:m] {
			w |= b2u(x < ys[j&63]) << (uint(j) & 63)
		}
	case loopGt:
		for j, x := range xs[:m] {
			w |= b2u(x > ys[j&63]) << (uint(j) & 63)
		}
	default:
		for j, x := range xs[:m] {
			y := ys[j&63]
			w |= (b2u(x < y) | b2u(x > y)) << (uint(j) & 63)
		}
	}
	return w
}

// cmpWordBlocks runs one loop over two blocks of equal length under word's
// kind rules, or reports that the typed loops cannot.
func cmpWordBlocks(loop cmpLoop, l, r *cmpBlock) (uint64, bool) {
	switch {
	case l.allNull || r.allNull:
		return 0, true
	case l.mixed || r.mixed:
		return 0, false
	case l.kind == r.kind && l.kind != types.KindFloat64 && l.kind != types.KindString:
		return cmpWordCol(loop, &l.iv, &r.iv, l.m), true
	}
	lf, lok := l.floats()
	rf, rok := r.floats()
	if !lok || !rok {
		return 0, false
	}
	return cmpWordCol(loop, lf, rf, l.m), true
}

// cmpWordGeneric is the row-at-a-time types.Compare loop the typed kernels
// replaced, kept for blocks they do not cover. The right operand of row j is
// rcol's value when rcol is non-nil, lit otherwise. NULL rows report FALSE;
// the caller's NULL word marks them.
func cmpWordGeneric(op expr.BinOp, lcol, rcol []types.Value, lit types.Value, sel []int, base, m int) uint64 {
	var w uint64
	for j := 0; j < m; j++ {
		r := base + j
		if sel != nil {
			r = sel[r]
		}
		lv, rv := lcol[r], lit
		if rcol != nil {
			rv = rcol[r]
		}
		if !lv.Null && !rv.Null && compareSatisfies(op, types.Compare(lv, rv)) {
			w |= 1 << uint(j)
		}
	}
	return w
}
