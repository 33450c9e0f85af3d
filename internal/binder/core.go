package binder

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/sql"
	"repro/internal/types"
)

// coreCtx tracks the evolving plan of one SELECT core while expressions are
// bound: subquery binding (semi joins, cross-joined scalar subqueries,
// decorrelated aggregates) splices new operators into ctx.plan.
type coreCtx struct {
	b      *Binder
	ctes   map[string]*sql.SelectStmt
	scope  *scope
	plan   logical.Operator
	aggMap map[sql.Expr]*expr.Column // aggregate/window AST node -> output column
	// groupExprs maps non-column GROUP BY expressions to their key columns
	// so equal SELECT-list expressions resolve to the grouping key.
	groupExprs []groupExpr
}

type groupExpr struct {
	ast sql.Expr
	col *expr.Column
}

func (b *Binder) bindCore(core *sql.SelectCore, outer *scope, ctes map[string]*sql.SelectStmt) (*bound, error) {
	ctx := &coreCtx{b: b, ctes: ctes, aggMap: map[sql.Expr]*expr.Column{}}
	ctx.scope = &scope{parent: outer}

	// FROM.
	var plan logical.Operator
	for _, ref := range core.From {
		p, err := ctx.bindTableRef(ref)
		if err != nil {
			return nil, err
		}
		if plan == nil {
			plan = p
		} else {
			plan = &logical.Join{Kind: logical.CrossJoin, Left: plan, Right: p}
		}
	}
	if plan == nil {
		// SELECT without FROM: one empty row.
		plan = &logical.Values{Rows: [][]types.Value{{}}}
	}
	ctx.plan = plan

	// WHERE: split conjuncts; IN-subqueries become semi joins, everything
	// else becomes a filter (scalar subqueries splice joins as they bind).
	if core.Where != nil {
		var residual []expr.Expr
		for _, conj := range splitAnd(core.Where) {
			if in, ok := conj.(*sql.InExpr); ok && in.Query != nil {
				if err := ctx.bindInSubquery(in); err != nil {
					return nil, err
				}
				continue
			}
			e, err := ctx.bindExpr(conj)
			if err != nil {
				return nil, err
			}
			residual = append(residual, e)
		}
		if len(residual) > 0 {
			ctx.plan = logical.NewFilter(ctx.plan, expr.And(residual...))
		}
	}

	// Aggregation.
	aggCalls := collectAggregates(core)
	if len(core.GroupBy) > 0 || len(aggCalls) > 0 {
		if err := ctx.buildAggregation(core, aggCalls); err != nil {
			return nil, err
		}
	}

	// HAVING (aggregates were already collected and are resolvable through
	// aggMap).
	if core.Having != nil {
		e, err := ctx.bindExpr(core.Having)
		if err != nil {
			return nil, fmt.Errorf("binder: HAVING: %w", err)
		}
		ctx.plan = logical.NewFilter(ctx.plan, e)
	}

	// Window functions.
	if err := ctx.buildWindows(core); err != nil {
		return nil, err
	}

	// SELECT list.
	out, err := ctx.buildProjection(core)
	if err != nil {
		return nil, err
	}

	if core.Distinct {
		gb := &logical.GroupBy{Input: out.plan, Keys: out.cols}
		out.plan = gb
	}
	return out, nil
}

// bindTableRef binds one FROM item and registers it in the scope.
func (ctx *coreCtx) bindTableRef(ref sql.TableRef) (logical.Operator, error) {
	switch r := ref.(type) {
	case *sql.TableName:
		qualifier := r.Alias
		if qualifier == "" {
			qualifier = r.Name
		}
		// CTE reference: inline a fresh instance.
		if cte, ok := ctx.ctes[r.Name]; ok {
			sub, err := ctx.b.bindSelect(cte, nil, withoutName(ctx.ctes, r.Name))
			if err != nil {
				return nil, fmt.Errorf("binder: CTE %q: %w", r.Name, err)
			}
			ctx.scope.items = append(ctx.scope.items, scopeItem{qualifier: qualifier, cols: sub.cols, names: sub.names})
			return sub.plan, nil
		}
		tab, ok := ctx.b.cat.Table(r.Name)
		if !ok {
			return nil, fmt.Errorf("binder: unknown table %q", r.Name)
		}
		scan := logical.NewScan(tab)
		ctx.scope.items = append(ctx.scope.items, scopeItem{qualifier: qualifier, cols: scan.Cols, names: scan.ColNames})
		return scan, nil

	case *sql.Derived:
		if r.Alias == "" {
			return nil, fmt.Errorf("binder: derived table requires an alias")
		}
		sub, err := ctx.b.bindSelect(r.Query, nil, ctx.ctes)
		if err != nil {
			return nil, err
		}
		names := sub.names
		if len(r.ColAliases) > 0 {
			if len(r.ColAliases) != len(names) {
				return nil, fmt.Errorf("binder: %q declares %d column aliases for %d columns", r.Alias, len(r.ColAliases), len(names))
			}
			names = r.ColAliases
		}
		ctx.scope.items = append(ctx.scope.items, scopeItem{qualifier: r.Alias, cols: sub.cols, names: names})
		return sub.plan, nil

	case *sql.ValuesRef:
		if len(r.Rows) == 0 {
			return nil, fmt.Errorf("binder: empty VALUES")
		}
		width := len(r.Rows[0])
		rows := make([][]types.Value, len(r.Rows))
		for i, rw := range r.Rows {
			if len(rw) != width {
				return nil, fmt.Errorf("binder: VALUES rows have uneven widths")
			}
			rows[i] = make([]types.Value, width)
			for j, e := range rw {
				be, err := ctx.b.bindSimpleExpr(e, &scope{})
				if err != nil {
					return nil, err
				}
				v, ok := expr.EvalConst(be)
				if !ok {
					return nil, fmt.Errorf("binder: VALUES requires constant expressions")
				}
				rows[i][j] = v
			}
		}
		names := r.ColAliases
		if len(names) == 0 {
			names = make([]string, width)
			for j := range names {
				names[j] = "col" + strconv.Itoa(j+1)
			}
		}
		if len(names) != width {
			return nil, fmt.Errorf("binder: VALUES has %d columns but %d aliases", width, len(names))
		}
		v := &logical.Values{Rows: rows}
		for j := 0; j < width; j++ {
			v.Cols = append(v.Cols, expr.NewColumn(names[j], rows[0][j].Kind))
		}
		ctx.scope.items = append(ctx.scope.items, scopeItem{qualifier: r.Alias, cols: v.Cols, names: names})
		return v, nil

	case *sql.JoinRef:
		left, err := ctx.bindTableRef(r.Left)
		if err != nil {
			return nil, err
		}
		right, err := ctx.bindTableRef(r.Right)
		if err != nil {
			return nil, err
		}
		var kind logical.JoinKind
		switch r.Kind {
		case "INNER":
			kind = logical.InnerJoin
		case "LEFT":
			kind = logical.LeftJoin
		case "CROSS":
			kind = logical.CrossJoin
		default:
			return nil, fmt.Errorf("binder: unsupported join kind %q", r.Kind)
		}
		var cond expr.Expr
		if r.On != nil {
			cond, err = ctx.bindExprNoSubquery(r.On)
			if err != nil {
				return nil, err
			}
		}
		return &logical.Join{Kind: kind, Left: left, Right: right, Cond: cond}, nil

	default:
		return nil, fmt.Errorf("binder: unsupported table reference %T", ref)
	}
}

func withoutName(ctes map[string]*sql.SelectStmt, name string) map[string]*sql.SelectStmt {
	// A CTE body must not see its own name (no recursion); siblings remain
	// visible (TPC-DS CTEs reference earlier CTEs).
	out := make(map[string]*sql.SelectStmt, len(ctes))
	for k, v := range ctes {
		if k != name {
			out[k] = v
		}
	}
	return out
}

// splitAnd flattens an AND tree in the AST.
func splitAnd(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []sql.Expr{e}
}

// bindInSubquery plans `x IN (SELECT ...)` as a semi join on the current
// plan.
func (ctx *coreCtx) bindInSubquery(in *sql.InExpr) error {
	if in.Neg {
		return fmt.Errorf("binder: NOT IN (subquery) is not supported")
	}
	probe, err := ctx.bindExpr(in.E)
	if err != nil {
		return err
	}
	sub, err := ctx.b.bindSelect(in.Query, nil, ctx.ctes)
	if err != nil {
		return err
	}
	if len(sub.cols) != 1 {
		return fmt.Errorf("binder: IN subquery must return exactly one column, got %d", len(sub.cols))
	}
	if err := checkComparable(probe, expr.Ref(sub.cols[0])); err != nil {
		return err
	}
	ctx.plan = &logical.Join{
		Kind:  logical.SemiJoin,
		Left:  ctx.plan,
		Right: sub.plan,
		Cond:  expr.Eq(probe, expr.Ref(sub.cols[0])),
	}
	return nil
}

// aggFuncs maps SQL function names to aggregate functions.
var aggFuncs = map[string]expr.AggFunc{
	"count": expr.AggCount,
	"sum":   expr.AggSum,
	"avg":   expr.AggAvg,
	"min":   expr.AggMin,
	"max":   expr.AggMax,
}

func isAggCall(e sql.Expr) (*sql.FuncCall, bool) {
	f, ok := e.(*sql.FuncCall)
	if !ok || f.Over != nil {
		return nil, false
	}
	_, isAgg := aggFuncs[f.Name]
	return f, isAgg
}

// collectAggregates gathers aggregate calls from the select list and HAVING
// (not descending into subqueries, which have their own scopes).
func collectAggregates(core *sql.SelectCore) []*sql.FuncCall {
	var out []*sql.FuncCall
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case nil:
			return
		case *sql.FuncCall:
			if f, ok := isAggCall(x); ok {
				out = append(out, f)
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
			walk(x.Filter)
		case *sql.BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *sql.NotExpr:
			walk(x.E)
		case *sql.IsNullExpr:
			walk(x.E)
		case *sql.BetweenExpr:
			walk(x.E)
			walk(x.Lo)
			walk(x.Hi)
		case *sql.LikeExpr:
			walk(x.E)
		case *sql.InExpr:
			walk(x.E)
			for _, i := range x.List {
				walk(i)
			}
		case *sql.CaseExpr:
			walk(x.Operand)
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			walk(x.Else)
		}
	}
	for _, item := range core.Items {
		walk(item.Expr)
	}
	walk(core.Having)
	return out
}

// buildAggregation plans the GroupBy node and narrows the scope to grouping
// keys plus aggregate outputs.
func (ctx *coreCtx) buildAggregation(core *sql.SelectCore, aggCalls []*sql.FuncCall) error {
	// Bind grouping expressions; non-column expressions are materialized
	// through a pre-projection.
	var keys []*expr.Column
	var preAssigns []logical.Assignment
	keySet := map[expr.ColumnID]bool{}
	for _, g := range core.GroupBy {
		e, err := ctx.bindExpr(g)
		if err != nil {
			return fmt.Errorf("binder: GROUP BY: %w", err)
		}
		if ref, ok := e.(*expr.ColumnRef); ok {
			if !keySet[ref.Col.ID] {
				keys = append(keys, ref.Col)
				keySet[ref.Col.ID] = true
			}
			continue
		}
		a := logical.Assign("$gkey", e)
		preAssigns = append(preAssigns, a)
		keys = append(keys, a.Col)
		keySet[a.Col.ID] = true
		ctx.groupExprs = append(ctx.groupExprs, groupExpr{ast: g, col: a.Col})
	}
	if len(preAssigns) > 0 {
		proj := logical.IdentityProject(ctx.plan, ctx.plan.Schema())
		proj.Cols = append(proj.Cols, preAssigns...)
		ctx.plan = proj
	}

	// Bind aggregates.
	var aggs []logical.AggAssign
	for _, call := range aggCalls {
		agg, err := ctx.bindAggCall(call)
		if err != nil {
			return err
		}
		// Reuse identical aggregates.
		reused := false
		for _, existing := range aggs {
			if expr.AggEqual(existing.Agg, agg) {
				ctx.aggMap[call] = existing.Col
				reused = true
				break
			}
		}
		if !reused {
			col := expr.NewColumn(call.Name, agg.ResultType())
			aggs = append(aggs, logical.AggAssign{Col: col, Agg: agg})
			ctx.aggMap[call] = col
		}
	}

	ctx.plan = &logical.GroupBy{Input: ctx.plan, Keys: keys, Aggs: aggs}

	// Narrow the scope: only grouping keys stay addressable by name.
	var newItems []scopeItem
	for _, it := range ctx.scope.items {
		ni := scopeItem{qualifier: it.qualifier}
		for i, c := range it.cols {
			if keySet[c.ID] {
				ni.cols = append(ni.cols, c)
				ni.names = append(ni.names, it.names[i])
			}
		}
		if len(ni.cols) > 0 {
			newItems = append(newItems, ni)
		}
	}
	ctx.scope.items = newItems
	return nil
}

func (ctx *coreCtx) bindAggCall(call *sql.FuncCall) (expr.AggCall, error) {
	fn := aggFuncs[call.Name]
	agg := expr.AggCall{Fn: fn, Distinct: call.Distinct}
	if call.Star {
		if call.Name != "count" {
			return agg, fmt.Errorf("binder: %s(*) is not valid", call.Name)
		}
		agg.Fn = expr.AggCountStar
	} else {
		if len(call.Args) != 1 {
			return agg, fmt.Errorf("binder: %s takes exactly one argument", call.Name)
		}
		arg, err := ctx.bindExpr(call.Args[0])
		if err != nil {
			return agg, err
		}
		agg.Arg = arg
	}
	if call.Filter != nil {
		mask, err := ctx.bindExpr(call.Filter)
		if err != nil {
			return agg, err
		}
		agg.Mask = mask
	}
	return agg, nil
}

// buildWindows plans a Window node for OVER(...) calls in the select list.
func (ctx *coreCtx) buildWindows(core *sql.SelectCore) error {
	var funcs []logical.WindowAssign
	var walk func(e sql.Expr) error
	walk = func(e sql.Expr) error {
		f, ok := e.(*sql.FuncCall)
		if ok && f.Over != nil {
			if _, isAgg := aggFuncs[f.Name]; !isAgg {
				return fmt.Errorf("binder: unsupported window function %q", f.Name)
			}
			agg, err := ctx.bindAggCall(&sql.FuncCall{
				Name: f.Name, Args: f.Args, Star: f.Star, Filter: f.Filter,
			})
			if err != nil {
				return err
			}
			var part []*expr.Column
			for _, p := range f.Over.PartitionBy {
				pe, err := ctx.bindExpr(p)
				if err != nil {
					return err
				}
				ref, isRef := pe.(*expr.ColumnRef)
				if !isRef {
					return fmt.Errorf("binder: PARTITION BY requires plain columns")
				}
				part = append(part, ref.Col)
			}
			col := expr.NewColumn(f.Name+"_w", agg.ResultType())
			funcs = append(funcs, logical.WindowAssign{Col: col, Agg: agg, PartitionBy: part})
			ctx.aggMap[e] = col
			return nil
		}
		switch x := e.(type) {
		case *sql.BinaryExpr:
			if err := walk(x.L); err != nil {
				return err
			}
			return walk(x.R)
		case *sql.CaseExpr:
			for _, w := range x.Whens {
				if err := walk(w.Cond); err != nil {
					return err
				}
				if err := walk(w.Then); err != nil {
					return err
				}
			}
			if x.Else != nil {
				return walk(x.Else)
			}
		case *sql.FuncCall:
			for _, a := range x.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, item := range core.Items {
		if item.Expr == nil {
			continue
		}
		if err := walk(item.Expr); err != nil {
			return err
		}
	}
	if len(funcs) > 0 {
		ctx.plan = &logical.Window{Input: ctx.plan, Funcs: funcs}
	}
	return nil
}

// buildProjection binds the select list into the final Project.
func (ctx *coreCtx) buildProjection(core *sql.SelectCore) (*bound, error) {
	out := &bound{}
	proj := &logical.Project{}
	for _, item := range core.Items {
		if item.Star {
			for _, it := range ctx.scope.items {
				if item.StarTable != "" && it.qualifier != item.StarTable {
					continue
				}
				for i, c := range it.cols {
					a := logical.Assignment{Col: c, E: expr.Ref(c)}
					proj.Cols = append(proj.Cols, a)
					out.names = append(out.names, it.names[i])
				}
			}
			// Star also exposes window columns bound from this core.
			continue
		}
		e, err := ctx.bindExpr(item.Expr)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			if n, ok := item.Expr.(*sql.Name); ok {
				name = n.Parts[len(n.Parts)-1]
			} else {
				name = "_col" + strconv.Itoa(len(proj.Cols)+1)
			}
		}
		// Preserve column identity for plain references: renaming is a
		// scope-level concern, and keeping the underlying column instance
		// lets derived-table projections reduce to identities the
		// normalizer can strip, so CTE instances stay structurally fusable.
		var a logical.Assignment
		if ref, ok := e.(*expr.ColumnRef); ok {
			a = logical.Assignment{Col: ref.Col, E: e}
		} else {
			a = logical.Assign(name, e)
		}
		proj.Cols = append(proj.Cols, a)
		out.names = append(out.names, name)
	}
	// SELECT * alongside window functions: also expose the window columns.
	if len(proj.Cols) > 0 {
		if w, ok := ctx.plan.(*logical.Window); ok {
			hasStar := false
			for _, item := range core.Items {
				if item.Star {
					hasStar = true
				}
			}
			if hasStar {
				exposed := map[expr.ColumnID]bool{}
				for _, a := range proj.Cols {
					exposed[a.Col.ID] = true
				}
				for _, f := range w.Funcs {
					used := false
					for _, a := range proj.Cols {
						if refs := expr.Columns(a.E); refs[f.Col.ID] {
							used = true
						}
					}
					if !used && !exposed[f.Col.ID] {
						proj.Cols = append(proj.Cols, logical.Assignment{Col: f.Col, E: expr.Ref(f.Col)})
						out.names = append(out.names, f.Col.Name)
					}
				}
			}
		}
	}
	if len(proj.Cols) == 0 {
		return nil, fmt.Errorf("binder: empty select list")
	}
	// Deduplicate identical output columns (SELECT *, t.* overlaps) by
	// re-projecting duplicates under fresh identities.
	seen := map[expr.ColumnID]bool{}
	for i, a := range proj.Cols {
		if ref, ok := a.E.(*expr.ColumnRef); ok && a.Col == ref.Col {
			if seen[a.Col.ID] {
				fresh := expr.NewColumn(a.Col.Name, a.Col.Type)
				proj.Cols[i] = logical.Assignment{Col: fresh, E: a.E}
			}
			seen[a.Col.ID] = true
		}
	}
	proj.Input = ctx.plan
	out.plan = proj
	out.cols = proj.Schema()
	return out, nil
}

// bindSimpleExpr binds an expression that may not contain subqueries or
// aggregates (VALUES rows, ORDER BY keys).
func (b *Binder) bindSimpleExpr(e sql.Expr, s *scope) (expr.Expr, error) {
	ctx := &coreCtx{b: b, scope: s, aggMap: map[sql.Expr]*expr.Column{}}
	return ctx.bindExprNoSubquery(e)
}

func (ctx *coreCtx) bindExprNoSubquery(e sql.Expr) (expr.Expr, error) {
	switch e.(type) {
	case *sql.SubqueryExpr, *sql.ExistsExpr:
		return nil, fmt.Errorf("binder: subquery not allowed in this position")
	}
	return ctx.bindExpr(e)
}

// bindExpr lowers an AST expression; subqueries splice joins into ctx.plan.
func (ctx *coreCtx) bindExpr(e sql.Expr) (expr.Expr, error) {
	// A SELECT-list expression equal to a GROUP BY expression resolves to
	// the grouping key column.
	for _, g := range ctx.groupExprs {
		if astEqual(e, g.ast) {
			return expr.Ref(g.col), nil
		}
	}
	switch x := e.(type) {
	case *sql.Name:
		col, _, err := ctx.scope.resolve(x.Parts)
		if err != nil {
			return nil, err
		}
		if col == nil {
			return nil, fmt.Errorf("binder: unknown column %q", strings.Join(x.Parts, "."))
		}
		return expr.Ref(col), nil

	case *sql.NumberLit:
		if strings.Contains(x.Text, ".") {
			f, err := strconv.ParseFloat(x.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("binder: bad number %q", x.Text)
			}
			return expr.Lit(types.Float(f)), nil
		}
		i, err := strconv.ParseInt(x.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("binder: bad number %q", x.Text)
		}
		return expr.Lit(types.Int(i)), nil

	case *sql.StringLit:
		return expr.Lit(types.String(x.V)), nil
	case *sql.BoolLit:
		return expr.Lit(types.Bool(x.V)), nil
	case *sql.NullLit:
		return expr.Lit(types.Unknown()), nil
	case *sql.DateLit:
		v, err := types.DateFromString(x.V)
		if err != nil {
			return nil, err
		}
		return expr.Lit(v), nil

	case *sql.BinaryExpr:
		l, err := ctx.bindExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ctx.bindExpr(x.R)
		if err != nil {
			return nil, err
		}
		op, ok := binOps[x.Op]
		if !ok {
			return nil, fmt.Errorf("binder: unsupported operator %q", x.Op)
		}
		if op.IsComparison() {
			if err := checkComparable(l, r); err != nil {
				return nil, err
			}
		}
		return expr.NewBinary(op, l, r), nil

	case *sql.NotExpr:
		inner, err := ctx.bindExpr(x.E)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: inner}, nil

	case *sql.IsNullExpr:
		inner, err := ctx.bindExpr(x.E)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: inner, Neg: x.Neg}, nil

	case *sql.BetweenExpr:
		inner, err := ctx.bindExpr(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := ctx.bindExpr(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := ctx.bindExpr(x.Hi)
		if err != nil {
			return nil, err
		}
		if err := checkComparable(inner, lo); err != nil {
			return nil, err
		}
		if err := checkComparable(inner, hi); err != nil {
			return nil, err
		}
		rng := expr.And(
			expr.NewBinary(expr.OpGe, inner, lo),
			expr.NewBinary(expr.OpLe, inner, hi),
		)
		if x.Neg {
			return &expr.Not{E: rng}, nil
		}
		return rng, nil

	case *sql.InExpr:
		if x.Query != nil {
			return nil, fmt.Errorf("binder: IN (subquery) is only supported as a top-level WHERE conjunct")
		}
		inner, err := ctx.bindExpr(x.E)
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, len(x.List))
		for i, item := range x.List {
			list[i], err = ctx.bindExpr(item)
			if err != nil {
				return nil, err
			}
			if err := checkComparable(inner, list[i]); err != nil {
				return nil, err
			}
		}
		return &expr.InList{E: inner, List: list, Neg: x.Neg}, nil

	case *sql.LikeExpr:
		inner, err := ctx.bindExpr(x.E)
		if err != nil {
			return nil, err
		}
		var out expr.Expr = &expr.Like{E: inner, Pattern: x.Pattern}
		if x.Neg {
			out = &expr.Not{E: out}
		}
		return out, nil

	case *sql.CaseExpr:
		return ctx.bindCase(x)

	case *sql.FuncCall:
		if col, ok := ctx.aggMap[e]; ok {
			return expr.Ref(col), nil
		}
		if x.Name == "coalesce" {
			args := make([]expr.Expr, len(x.Args))
			for i, a := range x.Args {
				var err error
				args[i], err = ctx.bindExpr(a)
				if err != nil {
					return nil, err
				}
			}
			return &expr.Coalesce{Args: args}, nil
		}
		if _, isAgg := aggFuncs[x.Name]; isAgg {
			return nil, fmt.Errorf("binder: aggregate %q not allowed in this position", x.Name)
		}
		return nil, fmt.Errorf("binder: unknown function %q", x.Name)

	case *sql.SubqueryExpr:
		return ctx.bindScalarSubquery(x.Query)

	case *sql.ExistsExpr:
		return nil, fmt.Errorf("binder: EXISTS is not supported; rewrite as IN")

	default:
		return nil, fmt.Errorf("binder: unsupported expression %T", e)
	}
}

// checkComparable rejects a comparison between l and r unless
// types.Compare can order their values: comparable kinds, or a side typed
// KindUnknown (the NULL literal), whose NULL never reaches a comparison.
func checkComparable(l, r expr.Expr) error {
	lk, rk := l.Type(), r.Type()
	if types.Comparable(lk, rk) || lk == types.KindUnknown || rk == types.KindUnknown {
		return nil
	}
	return fmt.Errorf("binder: cannot compare %s with %s", lk, rk)
}

var binOps = map[string]expr.BinOp{
	"+": expr.OpAdd, "-": expr.OpSub, "*": expr.OpMul, "/": expr.OpDiv,
	"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt, "<=": expr.OpLe,
	">": expr.OpGt, ">=": expr.OpGe, "AND": expr.OpAnd, "OR": expr.OpOr,
}

func (ctx *coreCtx) bindCase(x *sql.CaseExpr) (expr.Expr, error) {
	out := &expr.Case{}
	var operand expr.Expr
	if x.Operand != nil {
		var err error
		operand, err = ctx.bindExpr(x.Operand)
		if err != nil {
			return nil, err
		}
	}
	for _, w := range x.Whens {
		cond, err := ctx.bindExpr(w.Cond)
		if err != nil {
			return nil, err
		}
		if operand != nil {
			if err := checkComparable(operand, cond); err != nil {
				return nil, err
			}
			cond = expr.Eq(operand, cond)
		}
		then, err := ctx.bindExpr(w.Then)
		if err != nil {
			return nil, err
		}
		out.Whens = append(out.Whens, expr.When{Cond: cond, Then: then})
	}
	if x.Else != nil {
		e, err := ctx.bindExpr(x.Else)
		if err != nil {
			return nil, err
		}
		out.Else = e
	}
	return out, nil
}
