package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vec"
)

// batchFn is a compiled expression evaluated over the active rows of a
// batch: it writes exactly one value per active row into out, in selection
// order (len(out) == b.Len()). Predicates and projections run through
// batchFns so a filter's cost is a pass over column vectors guided by the
// selection vector, not an interpreted call per row.
//
// Compiled batchFns own internal scratch buffers and are therefore bound to
// a single operator instance within a single run; they must not be shared
// across goroutines. Operators above the scan leaves run single-threaded,
// so this holds by construction.
type batchFn func(b *vec.Batch, out []types.Value)

// batchEvaluator pairs a batchFn with a reusable output buffer.
type batchEvaluator struct {
	fn  batchFn
	buf []types.Value
}

func newBatchEvaluator(e expr.Expr, layout map[expr.ColumnID]int) (*batchEvaluator, error) {
	if e == nil {
		return nil, nil
	}
	fn, err := compileBatchExpr(e, layout)
	if err != nil {
		return nil, fmt.Errorf("exec: batch-compiling %s: %w", e, err)
	}
	return &batchEvaluator{fn: fn}, nil
}

// eval evaluates the expression over b's active rows into an internal
// buffer valid until the next eval call.
func (ev *batchEvaluator) eval(b *vec.Batch) []types.Value {
	n := b.Len()
	if cap(ev.buf) < n {
		ev.buf = make([]types.Value, n)
	}
	out := ev.buf[:n]
	ev.fn(b, out)
	return out
}

// compileBatchExpr lowers an expression into a vectorized closure. Column
// references, literals, binary operators, NOT, IS NULL and COALESCE are
// compiled natively over column vectors; rarer node types fall back to the
// row-at-a-time compileExpr closure driven through a gathered scratch row,
// so every expression the row engine supported stays supported.
func compileBatchExpr(e expr.Expr, layout map[expr.ColumnID]int) (batchFn, error) {
	switch x := e.(type) {
	case *expr.Literal:
		v := x.Val
		return func(_ *vec.Batch, out []types.Value) {
			for i := range out {
				out[i] = v
			}
		}, nil

	case *expr.ColumnRef:
		idx, ok := layout[x.Col.ID]
		if !ok {
			return nil, fmt.Errorf("exec: column %s not bound in row layout", x.Col)
		}
		return func(b *vec.Batch, out []types.Value) {
			col := b.Cols[idx]
			if b.Sel == nil {
				copy(out, col[:len(out)])
				return
			}
			for i, r := range b.Sel {
				out[i] = col[r]
			}
		}, nil

	case *expr.Binary:
		return compileBatchBinary(x, layout)

	case *expr.Not:
		inner, err := compileBatchExpr(x.E, layout)
		if err != nil {
			return nil, err
		}
		return func(b *vec.Batch, out []types.Value) {
			inner(b, out)
			for i, v := range out {
				if v.Null {
					out[i] = types.NullOf(types.KindBool)
				} else {
					out[i] = types.Bool(!v.AsBool())
				}
			}
		}, nil

	case *expr.IsNull:
		inner, err := compileBatchExpr(x.E, layout)
		if err != nil {
			return nil, err
		}
		neg := x.Neg
		return func(b *vec.Batch, out []types.Value) {
			inner(b, out)
			for i, v := range out {
				out[i] = types.Bool(v.Null != neg)
			}
		}, nil

	case *expr.Coalesce:
		args := make([]batchFn, len(x.Args))
		for i, a := range x.Args {
			var err error
			if args[i], err = compileBatchExpr(a, layout); err != nil {
				return nil, err
			}
		}
		kind := x.Type()
		var scratch []types.Value
		return func(b *vec.Batch, out []types.Value) {
			n := len(out)
			for i := range out {
				out[i] = types.NullOf(kind)
			}
			if cap(scratch) < n {
				scratch = make([]types.Value, n)
			}
			sv := scratch[:n]
			for ai, a := range args {
				if ai == 0 {
					a(b, out)
					continue
				}
				done := true
				for i := range out {
					if out[i].Null {
						done = false
						break
					}
				}
				if done {
					return
				}
				a(b, sv)
				for i := range out {
					if out[i].Null {
						out[i] = sv[i]
					}
				}
			}
		}, nil

	default:
		// Row fallback (CASE, IN, LIKE, future node types): gather each
		// active row into a scratch row and run the row-compiled closure.
		fn, err := compileExpr(e, layout)
		if err != nil {
			return nil, err
		}
		var scratch Row
		return func(b *vec.Batch, out []types.Value) {
			w := b.Width()
			if cap(scratch) < w {
				scratch = make(Row, w)
			}
			row := scratch[:w]
			for i := range out {
				b.Gather(i, row)
				out[i] = fn(row)
			}
		}, nil
	}
}

func compileBatchBinary(x *expr.Binary, layout map[expr.ColumnID]int) (batchFn, error) {
	// Column-vs-literal comparisons are the leaves of almost every
	// predicate; they read the column vector directly with no operand
	// materialization.
	if x.Op.IsComparison() {
		if fn := compileCmpColLit(x, layout); fn != nil {
			return fn, nil
		}
		if fn := compileCmpColCol(x, layout); fn != nil {
			return fn, nil
		}
	}
	l, err := compileBatchExpr(x.L, layout)
	if err != nil {
		return nil, err
	}
	r, err := compileBatchExpr(x.R, layout)
	if err != nil {
		return nil, err
	}
	// AND/OR short-circuit with selection vectors, exactly like the row
	// engine but batch-wise: the left vector decides most rows, and the
	// right side is evaluated only over the undecided sub-batch. This is
	// what keeps deep machine-generated predicates (the fusion rewrite's
	// accumulated masks) from paying full-tree evaluation per row.
	switch x.Op {
	case expr.OpAnd, expr.OpOr:
		isAnd := x.Op == expr.OpAnd
		var lbuf, rbuf []types.Value
		var log, phys []int
		return func(b *vec.Batch, out []types.Value) {
			n := len(out)
			if cap(lbuf) < n {
				lbuf = make([]types.Value, n)
			}
			lv := lbuf[:n]
			l(b, lv)
			log, phys = log[:0], phys[:0]
			for i := 0; i < n; i++ {
				v := lv[i]
				if !v.Null && v.AsBool() != isAnd {
					// false AND _, true OR _: decided by the left side.
					out[i] = types.Bool(!isAnd)
					continue
				}
				log = append(log, i)
				phys = append(phys, b.RowIdx(i))
			}
			if len(log) == 0 {
				return
			}
			if cap(rbuf) < len(log) {
				rbuf = make([]types.Value, len(log))
			}
			rv := rbuf[:len(log)]
			r(b.WithSel(phys), rv)
			if isAnd {
				for j, i := range log {
					out[i] = kleeneAnd(lv[i], rv[j])
				}
			} else {
				for j, i := range log {
					out[i] = kleeneOr(lv[i], rv[j])
				}
			}
		}, nil
	}

	// Comparisons and arithmetic evaluate both operand vectors fully; SQL
	// scalar expressions are pure, so this matches the row engine
	// value-for-value (division by zero yields NULL, not a fault).
	var lbuf, rbuf []types.Value
	operands := func(b *vec.Batch, n int) ([]types.Value, []types.Value) {
		if cap(lbuf) < n {
			lbuf = make([]types.Value, n)
			rbuf = make([]types.Value, n)
		}
		lv, rv := lbuf[:n], rbuf[:n]
		l(b, lv)
		r(b, rv)
		return lv, rv
	}
	if x.Op.IsComparison() {
		op := x.Op
		return func(b *vec.Batch, out []types.Value) {
			lv, rv := operands(b, len(out))
			for i := range out {
				a, c := lv[i], rv[i]
				if a.Null || c.Null {
					out[i] = types.NullOf(types.KindBool)
					continue
				}
				out[i] = types.Bool(expr.CompareHolds(op, types.Compare(a, c)))
			}
		}, nil
	}
	// Arithmetic.
	op := x.Op
	resultKind := x.Type()
	return func(b *vec.Batch, out []types.Value) {
		lv, rv := operands(b, len(out))
		for i := range out {
			out[i] = expr.Arith(op, resultKind, lv[i], rv[i])
		}
	}, nil
}

// compileCmpColLit specializes `column <op> literal` (either operand
// order); returns nil when the shape does not match, deferring to the
// generic path.
func compileCmpColLit(x *expr.Binary, layout map[expr.ColumnID]int) batchFn {
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
		return nil // the generic path reports the unbound column
	}
	c := lit.Val
	if c.Null {
		return func(_ *vec.Batch, out []types.Value) {
			for i := range out {
				out[i] = types.NullOf(types.KindBool)
			}
		}
	}
	return func(b *vec.Batch, out []types.Value) {
		col := b.Cols[idx]
		if b.Sel == nil {
			for i := range out {
				if v := col[i]; v.Null {
					out[i] = types.NullOf(types.KindBool)
				} else {
					out[i] = types.Bool(expr.CompareHolds(op, types.Compare(v, c)))
				}
			}
			return
		}
		for i, r := range b.Sel {
			if v := col[r]; v.Null {
				out[i] = types.NullOf(types.KindBool)
			} else {
				out[i] = types.Bool(expr.CompareHolds(op, types.Compare(v, c)))
			}
		}
	}
}

// compileCmpColCol specializes `column <op> column` — join residuals and
// key comparisons — reading both column vectors directly with no operand
// materialization. Returns nil when the shape does not match.
func compileCmpColCol(x *expr.Binary, layout map[expr.ColumnID]int) batchFn {
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
	return func(b *vec.Batch, out []types.Value) {
		lcol, rcol := b.Cols[li], b.Cols[ri]
		if b.Sel == nil {
			for i := range out {
				lv, rv := lcol[i], rcol[i]
				if lv.Null || rv.Null {
					out[i] = types.NullOf(types.KindBool)
				} else {
					out[i] = types.Bool(expr.CompareHolds(op, types.Compare(lv, rv)))
				}
			}
			return
		}
		for i, r := range b.Sel {
			lv, rv := lcol[r], rcol[r]
			if lv.Null || rv.Null {
				out[i] = types.NullOf(types.KindBool)
			} else {
				out[i] = types.Bool(expr.CompareHolds(op, types.Compare(lv, rv)))
			}
		}
	}
}

// flipCmp mirrors a comparison when its operands are swapped.
func flipCmp(op expr.BinOp) expr.BinOp {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	default: // Eq, Ne are symmetric
		return op
	}
}

func kleeneAnd(lv, rv types.Value) types.Value {
	if !lv.Null && !lv.AsBool() {
		return types.Bool(false)
	}
	if !rv.Null && !rv.AsBool() {
		return types.Bool(false)
	}
	if lv.Null || rv.Null {
		return types.NullOf(types.KindBool)
	}
	return types.Bool(true)
}

func kleeneOr(lv, rv types.Value) types.Value {
	if !lv.Null && lv.AsBool() {
		return types.Bool(true)
	}
	if !rv.Null && rv.AsBool() {
		return types.Bool(true)
	}
	if lv.Null || rv.Null {
		return types.NullOf(types.KindBool)
	}
	return types.Bool(false)
}
