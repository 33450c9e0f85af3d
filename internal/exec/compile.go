package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/types"
)

// evalFn is a compiled expression: column references are resolved to row
// slots once at build time, so per-row evaluation does no map lookups and
// no tree walking. This matters for fused plans, which trade duplicate
// scans for extra mask evaluations per row.
type evalFn func(Row) types.Value

// compileExpr lowers an expression into a closure over the row layout.
func compileExpr(e expr.Expr, layout map[expr.ColumnID]int) (evalFn, error) {
	switch x := e.(type) {
	case *expr.Literal:
		v := x.Val
		return func(Row) types.Value { return v }, nil

	case *expr.ColumnRef:
		idx, ok := layout[x.Col.ID]
		if !ok {
			return nil, fmt.Errorf("exec: column %s not bound in row layout", x.Col)
		}
		return func(r Row) types.Value { return r[idx] }, nil

	case *expr.Binary:
		return compileBinary(x, layout)

	case *expr.Not:
		inner, err := compileExpr(x.E, layout)
		if err != nil {
			return nil, err
		}
		return func(r Row) types.Value {
			v := inner(r)
			if v.Null {
				return types.NullOf(types.KindBool)
			}
			return types.Bool(!v.AsBool())
		}, nil

	case *expr.IsNull:
		inner, err := compileExpr(x.E, layout)
		if err != nil {
			return nil, err
		}
		neg := x.Neg
		return func(r Row) types.Value {
			v := inner(r)
			if neg {
				return types.Bool(!v.Null)
			}
			return types.Bool(v.Null)
		}, nil

	case *expr.Case:
		conds := make([]evalFn, len(x.Whens))
		thens := make([]evalFn, len(x.Whens))
		for i, w := range x.Whens {
			var err error
			if conds[i], err = compileExpr(w.Cond, layout); err != nil {
				return nil, err
			}
			if thens[i], err = compileExpr(w.Then, layout); err != nil {
				return nil, err
			}
		}
		var elseFn evalFn
		if x.Else != nil {
			var err error
			if elseFn, err = compileExpr(x.Else, layout); err != nil {
				return nil, err
			}
		}
		resultKind := x.Type()
		return func(r Row) types.Value {
			for i := range conds {
				if conds[i](r).IsTrue() {
					return thens[i](r)
				}
			}
			if elseFn != nil {
				return elseFn(r)
			}
			return types.NullOf(resultKind)
		}, nil

	case *expr.InList:
		inner, err := compileExpr(x.E, layout)
		if err != nil {
			return nil, err
		}
		items := make([]evalFn, len(x.List))
		for i, it := range x.List {
			if items[i], err = compileExpr(it, layout); err != nil {
				return nil, err
			}
		}
		neg := x.Neg
		return func(r Row) types.Value {
			v := inner(r)
			if v.Null {
				return types.NullOf(types.KindBool)
			}
			sawNull := false
			for _, it := range items {
				iv := it(r)
				if iv.Null {
					sawNull = true
					continue
				}
				if types.Compare(v, iv) == 0 {
					return types.Bool(!neg)
				}
			}
			if sawNull {
				return types.NullOf(types.KindBool)
			}
			return types.Bool(neg)
		}, nil

	case *expr.Like:
		inner, err := compileExpr(x.E, layout)
		if err != nil {
			return nil, err
		}
		pattern := x.Pattern
		return func(r Row) types.Value {
			v := inner(r)
			if v.Null {
				return types.NullOf(types.KindBool)
			}
			return types.Bool(expr.MatchLike(v.S, pattern))
		}, nil

	case *expr.Coalesce:
		args := make([]evalFn, len(x.Args))
		for i, a := range x.Args {
			var err error
			if args[i], err = compileExpr(a, layout); err != nil {
				return nil, err
			}
		}
		kind := x.Type()
		return func(r Row) types.Value {
			for _, a := range args {
				if v := a(r); !v.Null {
					return v
				}
			}
			return types.NullOf(kind)
		}, nil

	default:
		return nil, fmt.Errorf("exec: cannot compile %T", e)
	}
}

func compileBinary(x *expr.Binary, layout map[expr.ColumnID]int) (evalFn, error) {
	l, err := compileExpr(x.L, layout)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(x.R, layout)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case expr.OpAnd:
		return func(row Row) types.Value {
			lv := l(row)
			if !lv.Null && !lv.AsBool() {
				return types.Bool(false)
			}
			rv := r(row)
			if !rv.Null && !rv.AsBool() {
				return types.Bool(false)
			}
			if lv.Null || rv.Null {
				return types.NullOf(types.KindBool)
			}
			return types.Bool(true)
		}, nil
	case expr.OpOr:
		return func(row Row) types.Value {
			lv := l(row)
			if !lv.Null && lv.AsBool() {
				return types.Bool(true)
			}
			rv := r(row)
			if !rv.Null && rv.AsBool() {
				return types.Bool(true)
			}
			if lv.Null || rv.Null {
				return types.NullOf(types.KindBool)
			}
			return types.Bool(false)
		}, nil
	}
	if x.Op.IsComparison() {
		op := x.Op
		return func(row Row) types.Value {
			lv := l(row)
			if lv.Null {
				return types.NullOf(types.KindBool)
			}
			rv := r(row)
			if rv.Null {
				return types.NullOf(types.KindBool)
			}
			return types.Bool(expr.CompareHolds(op, types.Compare(lv, rv)))
		}, nil
	}
	// Arithmetic.
	op := x.Op
	resultKind := x.Type()
	return func(row Row) types.Value {
		lv := l(row)
		if lv.Null {
			return types.NullOf(resultKind)
		}
		return expr.Arith(op, resultKind, lv, r(row))
	}, nil
}
