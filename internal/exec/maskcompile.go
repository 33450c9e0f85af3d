package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vec"
)

// bitmapFn is a compiled boolean expression evaluated over the active rows
// of a batch into a vec.Bitmap: bit i holds the three-valued result for
// logical row i (selection order). The closure fully defines out for
// b.Len() rows on every call — callers never pre-reset.
//
// Like batchFns, bitmapFns own scratch state and are bound to one operator
// instance on one goroutine.
type bitmapFn func(b *vec.Batch, out *vec.Bitmap)

// compileBitmapExpr lowers a boolean expression into a bitmap-producing
// closure that owns a private comparison-leaf table, for callers that
// evaluate it on its own (a mask family's residuals share one table instead:
// see maskFamilySpec.instantiate).
func compileBitmapExpr(e expr.Expr, layout map[expr.ColumnID]int) (bitmapFn, error) {
	t := &cmpTable{}
	fn, err := t.compile(e, layout)
	if err != nil {
		return nil, err
	}
	return t.bind(fn), nil
}

// compile lowers a boolean expression into a bitmap-producing closure.
// Boolean structure (AND/OR/NOT, IS NULL, comparisons against literals or
// other columns) is compiled natively — intermediates are bit-planes
// combined with word kernels instead of []types.Value vectors, and
// comparisons against numeric, date and boolean literals become leaves of t.
// Anything else routes through compileBatchExpr and converts the value
// vector once at the boundary, so coverage matches the value engine.
func (t *cmpTable) compile(e expr.Expr, layout map[expr.ColumnID]int) (bitmapFn, error) {
	switch x := e.(type) {
	case *expr.Literal:
		v := x.Val
		return func(b *vec.Batch, out *vec.Bitmap) {
			out.Reset(b.Len())
			switch {
			case v.Null:
				out.FillNull()
			case v.IsTrue():
				out.FillTrue()
			}
		}, nil

	case *expr.ColumnRef:
		idx, ok := layout[x.Col.ID]
		if !ok {
			return nil, fmt.Errorf("exec: column %s not bound in row layout", x.Col)
		}
		return func(b *vec.Batch, out *vec.Bitmap) {
			col := b.Cols[idx]
			out.Reset(b.Len())
			if b.Sel == nil {
				for i := 0; i < out.Len(); i++ {
					if v := col[i]; v.Null {
						out.SetNull(i)
					} else if v.IsTrue() {
						out.SetTrue(i)
					}
				}
				return
			}
			for i, r := range b.Sel {
				if v := col[r]; v.Null {
					out.SetNull(i)
				} else if v.IsTrue() {
					out.SetTrue(i)
				}
			}
		}, nil

	case *expr.Not:
		inner, err := t.compile(x.E, layout)
		if err != nil {
			return nil, err
		}
		return func(b *vec.Batch, out *vec.Bitmap) {
			inner(b, out)
			out.Not()
		}, nil

	case *expr.IsNull:
		if cr, ok := x.E.(*expr.ColumnRef); ok {
			idx, bound := layout[cr.Col.ID]
			if !bound {
				return nil, fmt.Errorf("exec: column %s not bound in row layout", cr.Col)
			}
			neg := x.Neg
			return func(b *vec.Batch, out *vec.Bitmap) {
				col := b.Cols[idx]
				out.Reset(b.Len())
				if b.Sel == nil {
					for i := 0; i < out.Len(); i++ {
						if col[i].Null != neg {
							out.SetTrue(i)
						}
					}
					return
				}
				for i, r := range b.Sel {
					if col[r].Null != neg {
						out.SetTrue(i)
					}
				}
			}, nil
		}
		return compileBitmapFallback(e, layout)

	case *expr.Binary:
		switch {
		case x.Op == expr.OpAnd:
			// Conjuncts drops TRUE literals; an empty list means the AND is
			// vacuously TRUE.
			return t.compileNary(expr.Conjuncts(x), layout, (*vec.Bitmap).AndWith, true)
		case x.Op == expr.OpOr:
			return t.compileNary(expr.Disjuncts(x), layout, (*vec.Bitmap).OrWith, false)
		case x.Op.IsComparison():
			if fn := t.cmpColLit(x, layout); fn != nil {
				return fn, nil
			}
			if fn := compileBitmapCmpColCol(x, layout); fn != nil {
				return fn, nil
			}
			return compileBitmapCmpGeneric(x, layout)
		}
		return compileBitmapFallback(e, layout)

	default:
		return compileBitmapFallback(e, layout)
	}
}

// compileNary folds a flattened AND/OR operand list with a Kleene word
// kernel: the first operand evaluates into out, the rest into a scratch
// bitmap merged in.
func (t *cmpTable) compileNary(parts []expr.Expr, layout map[expr.ColumnID]int, merge func(*vec.Bitmap, *vec.Bitmap), empty bool) (bitmapFn, error) {
	if len(parts) == 0 {
		return func(b *vec.Batch, out *vec.Bitmap) {
			out.Reset(b.Len())
			if empty {
				out.FillTrue()
			}
		}, nil
	}
	fns := make([]bitmapFn, len(parts))
	for i, p := range parts {
		var err error
		if fns[i], err = t.compile(p, layout); err != nil {
			return nil, err
		}
	}
	var scratch vec.Bitmap
	return func(b *vec.Batch, out *vec.Bitmap) {
		fns[0](b, out)
		for _, fn := range fns[1:] {
			fn(b, &scratch)
			merge(out, &scratch)
		}
	}, nil
}

// cmpColLit is the bit-producing twin of compileCmpColLit. Numeric,
// date and boolean literals become leaves of t; NULL and string literals
// need no table.
func (t *cmpTable) cmpColLit(x *expr.Binary, layout map[expr.ColumnID]int) bitmapFn {
	op := x.Op
	cr, crOK := x.L.(*expr.ColumnRef)
	lit, litOK := x.R.(*expr.Literal)
	if !crOK || !litOK {
		lit, litOK = x.L.(*expr.Literal)
		cr, crOK = x.R.(*expr.ColumnRef)
		if !crOK || !litOK {
			return nil
		}
		op = flipCmp(op)
	}
	idx, ok := layout[cr.Col.ID]
	if !ok {
		return nil
	}
	c := lit.Val
	if c.Null {
		return func(b *vec.Batch, out *vec.Bitmap) {
			out.Reset(b.Len())
			out.FillNull()
		}
	}
	if c.Kind != types.KindString {
		return t.leaf(idx, op, c)
	}
	return func(b *vec.Batch, out *vec.Bitmap) {
		col := b.Cols[idx]
		out.Reset(b.Len())
		if b.Sel == nil {
			for i := 0; i < out.Len(); i++ {
				if v := col[i]; v.Null {
					out.SetNull(i)
				} else if expr.CompareHolds(op, types.Compare(v, c)) {
					out.SetTrue(i)
				}
			}
			return
		}
		for i, r := range b.Sel {
			if v := col[r]; v.Null {
				out.SetNull(i)
			} else if expr.CompareHolds(op, types.Compare(v, c)) {
				out.SetTrue(i)
			}
		}
	}
}

// compileBitmapCmpColCol is the bit-producing twin of compileCmpColCol: both
// columns are unboxed a block at a time and compared with the loops the
// comparison leaves use, under the same kind rules.
func compileBitmapCmpColCol(x *expr.Binary, layout map[expr.ColumnID]int) bitmapFn {
	lcr, lok := x.L.(*expr.ColumnRef)
	rcr, rok := x.R.(*expr.ColumnRef)
	if !lok || !rok {
		return nil
	}
	li, ok := layout[lcr.Col.ID]
	if !ok {
		return nil
	}
	ri, ok := layout[rcr.Col.ID]
	if !ok {
		return nil
	}
	op := x.Op
	loop, inv := cmpKernel(op)
	return func(b *vec.Batch, out *vec.Bitmap) {
		lcol, rcol := b.Cols[li], b.Cols[ri]
		n := b.Len()
		out.Reset(n)
		var l, r cmpBlock
		for base, wi := 0, 0; base < n; base, wi = base+64, wi+1 {
			m := min(64, n-base)
			l.load(lcol, b.Sel, base, m)
			r.load(rcol, b.Sel, base, m)
			w, ok := cmpWordBlocks(loop, &l, &r)
			if !ok {
				w = cmpWordGeneric(op, lcol, rcol, types.Value{}, b.Sel, base, m)
			} else if inv {
				w = ^w
			}
			out.SetWord(wi, w, l.nulls|r.nulls)
		}
	}
}

// compileBitmapCmpGeneric handles comparisons over computed operands by
// materializing both operand vectors and writing bits.
func compileBitmapCmpGeneric(x *expr.Binary, layout map[expr.ColumnID]int) (bitmapFn, error) {
	l, err := compileBatchExpr(x.L, layout)
	if err != nil {
		return nil, err
	}
	r, err := compileBatchExpr(x.R, layout)
	if err != nil {
		return nil, err
	}
	op := x.Op
	var lbuf, rbuf []types.Value
	return func(b *vec.Batch, out *vec.Bitmap) {
		n := b.Len()
		if cap(lbuf) < n {
			lbuf = make([]types.Value, n)
			rbuf = make([]types.Value, n)
		}
		lv, rv := lbuf[:n], rbuf[:n]
		l(b, lv)
		r(b, rv)
		out.Reset(n)
		for i := 0; i < n; i++ {
			a, c := lv[i], rv[i]
			if a.Null || c.Null {
				out.SetNull(i)
			} else if expr.CompareHolds(op, types.Compare(a, c)) {
				out.SetTrue(i)
			}
		}
	}, nil
}

// compileBitmapFallback evaluates through the value engine and converts at
// the boundary: TRUE bit iff the value IsTrue, NULL bit iff NULL. Non-bool
// non-NULL values land FALSE, matching row-engine mask semantics.
func compileBitmapFallback(e expr.Expr, layout map[expr.ColumnID]int) (bitmapFn, error) {
	fn, err := compileBatchExpr(e, layout)
	if err != nil {
		return nil, err
	}
	var scratch []types.Value
	return func(b *vec.Batch, out *vec.Bitmap) {
		n := b.Len()
		if cap(scratch) < n {
			scratch = make([]types.Value, n)
		}
		sv := scratch[:n]
		fn(b, sv)
		out.Reset(n)
		for i, v := range sv {
			if v.Null {
				out.SetNull(i)
			} else if v.IsTrue() {
				out.SetTrue(i)
			}
		}
	}, nil
}
