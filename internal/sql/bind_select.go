package sql

import (
	"fmt"
	"slices"

	"orca/internal/base"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/props"
)

// bindSelect binds one SELECT block: FROM → WHERE → GROUP/HAVING → window →
// projection → DISTINCT.
func (b *binder) bindSelect(blk *SelectBlock, outer *scope) (*ops.Expr, *scope, error) {
	if len(blk.From) == 0 {
		return nil, nil, fmt.Errorf("sql: SELECT without FROM is not supported")
	}

	// FROM clause.
	var tree *ops.Expr
	sc := &scope{parent: outer}
	for _, te := range blk.From {
		t, err := b.bindTableExpr(te, sc, outer)
		if err != nil {
			return nil, nil, err
		}
		if tree == nil {
			tree = t
		} else {
			tree = ops.NewExpr(&ops.Join{Type: ops.InnerJoin}, tree, t)
		}
	}

	// WHERE clause.
	if blk.Where != nil {
		pred, err := b.bindExpr(blk.Where, sc, nil)
		if err != nil {
			return nil, nil, err
		}
		tree = ops.NewExpr(&ops.Select{Pred: pred}, tree)
	}

	// Aggregation.
	aggCalls := collectAggs(blk)
	hasAgg := len(aggCalls) > 0 || len(blk.GroupBy) > 0
	aggMap := map[*FuncCall]*md.ColRef{}
	var groupExprs []groupExpr
	if hasAgg {
		t, ge, err := b.bindAggregation(blk, tree, sc, aggCalls, aggMap)
		if err != nil {
			return nil, nil, err
		}
		tree = t
		groupExprs = ge
	}

	// HAVING.
	if blk.Having != nil {
		pred, err := b.bindExpr(blk.Having, sc, aggMap)
		if err != nil {
			return nil, nil, err
		}
		pred = substGroupExprs(pred, groupExprs)
		tree = ops.NewExpr(&ops.Select{Pred: pred}, tree)
	}

	// Window functions.
	winMap := map[*FuncCall]*md.ColRef{}
	if wins := collectWindows(blk); len(wins) > 0 {
		t, err := b.bindWindows(wins, tree, sc, aggMap, winMap)
		if err != nil {
			return nil, nil, err
		}
		tree = t
	}

	// Projection.
	var elems []ops.ProjElem
	out := &scope{parent: outer}
	for i, item := range blk.Items {
		if item.Star {
			for _, c := range sc.cols {
				elems = append(elems, ops.ProjElem{Col: c.ref, Expr: ops.NewIdent(c.ref.ID, c.ref.Type)})
				out.add(c.table, c.name, c.ref)
			}
			continue
		}
		se, err := b.bindExpr(item.Expr, sc, mergeMaps(aggMap, winMap))
		if err != nil {
			return nil, nil, err
		}
		se = substGroupExprs(se, groupExprs)
		name := item.Alias
		if name == "" {
			if cn, ok := item.Expr.(*ColName); ok {
				name = cn.Name
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		var ref *md.ColRef
		if id, ok := se.(*ops.Ident); ok {
			if r := b.f.Lookup(id.Col); r != nil {
				ref = r
			}
		}
		if ref == nil {
			ref = b.f.NewComputedColumn(name, scalarType(se, b.f))
		}
		elems = append(elems, ops.ProjElem{Col: ref, Expr: se})
		qualifier := ""
		if cn, ok := item.Expr.(*ColName); ok {
			qualifier = cn.Table
		}
		out.add(qualifier, name, ref)
	}
	tree = ops.NewExpr(&ops.Project{Elems: elems}, tree)

	// DISTINCT.
	if blk.Distinct {
		var groupCols []base.ColID
		for _, c := range out.cols {
			groupCols = append(groupCols, c.ref.ID)
		}
		tree = ops.NewExpr(&ops.GbAgg{GroupCols: groupCols}, tree)
	}
	return tree, out, nil
}

func mergeMaps(a, bm map[*FuncCall]*md.ColRef) map[*FuncCall]*md.ColRef {
	if len(bm) == 0 {
		return a
	}
	out := make(map[*FuncCall]*md.ColRef, len(a)+len(bm))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range bm {
		out[k] = v
	}
	return out
}

// ---------------------------------------------------------------------------
// FROM items

func (b *binder) bindTableExpr(te TableExpr, sc *scope, outer *scope) (*ops.Expr, error) {
	switch t := te.(type) {
	case *TableRef:
		return b.bindTableRef(t, sc)
	case *SubqueryRef:
		tree, sub, _, err := b.bindStatement(t.Stmt, outer)
		if err != nil {
			return nil, err
		}
		for _, c := range sub.cols {
			sc.add(t.Alias, c.name, c.ref)
		}
		return tree, nil
	case *JoinExpr:
		lt, err := b.bindTableExpr(t.L, sc, outer)
		if err != nil {
			return nil, err
		}
		rt, err := b.bindTableExpr(t.R, sc, outer)
		if err != nil {
			return nil, err
		}
		var pred ops.ScalarExpr
		if t.On != nil {
			p, err := b.bindExpr(t.On, sc, nil)
			if err != nil {
				return nil, err
			}
			pred = p
		}
		jt := ops.InnerJoin
		if t.Kind == "left" {
			jt = ops.LeftJoin
		}
		return ops.NewExpr(&ops.Join{Type: jt, Pred: pred}, lt, rt), nil
	default:
		return nil, fmt.Errorf("sql: unsupported FROM item %T", te)
	}
}

func (b *binder) bindTableRef(t *TableRef, sc *scope) (*ops.Expr, error) {
	// CTE consumer?
	if def, ok := b.ctes[t.Name]; ok {
		consumer := &ops.CTEConsumer{ID: def.id}
		for i, pc := range def.cols {
			ref := b.f.NewComputedColumn(def.names[i], pc.Type)
			consumer.Cols = append(consumer.Cols, ref)
			consumer.ProducerCols = append(consumer.ProducerCols, pc.ID)
			sc.add(t.Alias, def.names[i], ref)
		}
		return ops.NewExpr(consumer), nil
	}
	rel, err := b.acc.RelationByName(t.Name)
	if err != nil {
		return nil, err
	}
	get := &ops.Get{Alias: t.Alias, Rel: rel, Cols: make([]*md.ColRef, 0, len(rel.Columns))}
	sc.cols = slices.Grow(sc.cols, len(rel.Columns))
	for i, col := range rel.Columns {
		ref := b.f.NewTableColumn(col.Name, col.Type, rel.Mdid, i)
		get.Cols = append(get.Cols, ref)
		sc.add(t.Alias, col.Name, ref)
	}
	return ops.NewExpr(get), nil
}

// ---------------------------------------------------------------------------
// Aggregation

var aggNames = map[string]bool{"count": true, "sum": true, "min": true, "max": true, "avg": true}

// collectAggs finds aggregate calls (outside OVER clauses) in the select
// list and HAVING clause.
func collectAggs(blk *SelectBlock) []*FuncCall {
	var out []*FuncCall
	for _, item := range blk.Items {
		if !item.Star {
			out = append(out, findAggs(item.Expr)...)
		}
	}
	if blk.Having != nil {
		out = append(out, findAggs(blk.Having)...)
	}
	return out
}

func findAggs(e Expr) []*FuncCall {
	var out []*FuncCall
	walkExpr(e, func(x Expr) bool {
		if fc, ok := x.(*FuncCall); ok {
			if fc.Over != nil {
				return false // window functions handled separately
			}
			if aggNames[fc.Name] {
				out = append(out, fc)
				return false
			}
		}
		if _, ok := x.(*SubqueryExpr); ok {
			return false
		}
		if _, ok := x.(*ExistsExpr); ok {
			return false
		}
		return true
	})
	return out
}

// walkExpr visits the expression tree; the callback returning false prunes
// descent.
func walkExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *BinExpr:
		walkExpr(x.L, f)
		walkExpr(x.R, f)
	case *UnaryExpr:
		walkExpr(x.Arg, f)
	case *FuncCall:
		for _, a := range x.Args {
			walkExpr(a, f)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			walkExpr(w.When, f)
			walkExpr(w.Then, f)
		}
		walkExpr(x.Else, f)
	case *IsNullExpr:
		walkExpr(x.Arg, f)
	case *InExpr:
		walkExpr(x.Arg, f)
		for _, v := range x.List {
			walkExpr(v, f)
		}
	case *BetweenExpr:
		walkExpr(x.Arg, f)
		walkExpr(x.Lo, f)
		walkExpr(x.Hi, f)
	}
}

// groupExpr records one computed grouping expression and the column holding
// it, so later references to the same expression (SELECT list, HAVING) can
// be substituted structurally.
type groupExpr struct {
	expr ops.ScalarExpr
	col  *md.ColRef
}

// substGroupExprs replaces subtrees structurally equal to a grouping
// expression with the grouping column.
func substGroupExprs(e ops.ScalarExpr, groups []groupExpr) ops.ScalarExpr {
	if e == nil || len(groups) == 0 {
		return e
	}
	for _, g := range groups {
		if e.Equal(g.expr) {
			return ops.NewIdent(g.col.ID, g.col.Type)
		}
	}
	switch x := e.(type) {
	case *ops.Cmp:
		return &ops.Cmp{Op: x.Op, L: substGroupExprs(x.L, groups), R: substGroupExprs(x.R, groups)}
	case *ops.BoolOp:
		args := make([]ops.ScalarExpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substGroupExprs(a, groups)
		}
		return &ops.BoolOp{Kind: x.Kind, Args: args}
	case *ops.BinOp:
		return &ops.BinOp{Op: x.Op, L: substGroupExprs(x.L, groups), R: substGroupExprs(x.R, groups)}
	case *ops.Func:
		args := make([]ops.ScalarExpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substGroupExprs(a, groups)
		}
		return &ops.Func{Name: x.Name, Args: args}
	case *ops.Case:
		whens := make([]ops.CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = ops.CaseWhen{When: substGroupExprs(w.When, groups), Then: substGroupExprs(w.Then, groups)}
		}
		return &ops.Case{Whens: whens, Else: substGroupExprs(x.Else, groups)}
	case *ops.IsNull:
		return &ops.IsNull{Arg: substGroupExprs(x.Arg, groups), Negated: x.Negated}
	default:
		return e
	}
}

// bindAggregation builds the GbAgg operator: grouping expressions are
// pre-projected when they are not simple columns; avg is rewritten to
// sum/count; each aggregate call maps to a fresh output column.
func (b *binder) bindAggregation(blk *SelectBlock, tree *ops.Expr, sc *scope,
	aggCalls []*FuncCall, aggMap map[*FuncCall]*md.ColRef) (*ops.Expr, []groupExpr, error) {

	// Bind grouping columns (pre-projecting computed group keys).
	var groupCols []base.ColID
	var preElems []ops.ProjElem
	var groupExprs []groupExpr
	for _, ge := range blk.GroupBy {
		se, err := b.bindExpr(ge, sc, nil)
		if err != nil {
			return nil, nil, err
		}
		if id, ok := se.(*ops.Ident); ok {
			groupCols = append(groupCols, id.Col)
			continue
		}
		ref := b.f.NewComputedColumn("groupkey", scalarType(se, b.f))
		preElems = append(preElems, ops.ProjElem{Col: ref, Expr: se})
		groupCols = append(groupCols, ref.ID)
		groupExprs = append(groupExprs, groupExpr{expr: se, col: ref})
		sc.add("", ref.Name, ref)
	}
	if len(preElems) > 0 {
		// Pass through every visible column plus the computed keys.
		for _, c := range sc.cols {
			skip := false
			for _, pe := range preElems {
				if pe.Col.ID == c.ref.ID {
					skip = true
				}
			}
			if !skip {
				preElems = append(preElems, ops.ProjElem{Col: c.ref, Expr: ops.NewIdent(c.ref.ID, c.ref.Type)})
			}
		}
		tree = ops.NewExpr(&ops.Project{Elems: preElems}, tree)
	}

	var aggElems []ops.AggElem
	var postElems []ops.ProjElem // avg rewrites
	addAgg := func(name string, arg ops.ScalarExpr, distinct bool, outName string, typ base.TypeID) *md.ColRef {
		// Reuse an identical aggregate if present.
		probe := &ops.AggFunc{Name: name, Arg: arg, Distinct: distinct}
		for _, ae := range aggElems {
			if ae.Agg.Equal(probe) {
				return ae.Col
			}
		}
		ref := b.f.NewComputedColumn(outName, typ)
		aggElems = append(aggElems, ops.AggElem{Col: ref, Agg: probe})
		return ref
	}

	for _, fc := range aggCalls {
		if _, done := aggMap[fc]; done {
			continue
		}
		var arg ops.ScalarExpr
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, nil, fmt.Errorf("sql: aggregate %q takes one argument", fc.Name)
			}
			a, err := b.bindExpr(fc.Args[0], sc, nil)
			if err != nil {
				return nil, nil, err
			}
			arg = a
		}
		switch fc.Name {
		case "avg":
			sumRef := addAgg("sum", arg, fc.Distinct, "avg_sum", base.TFloat)
			cntRef := addAgg("count", arg, fc.Distinct, "avg_count", base.TInt)
			avgRef := b.f.NewComputedColumn("avg", base.TFloat)
			postElems = append(postElems, ops.ProjElem{
				Col: avgRef,
				Expr: &ops.BinOp{Op: "/",
					L: ops.NewIdent(sumRef.ID, base.TFloat),
					R: ops.NewIdent(cntRef.ID, base.TInt)},
			})
			aggMap[fc] = avgRef
		case "count":
			aggMap[fc] = addAgg("count", arg, fc.Distinct, "count", base.TInt)
		case "sum":
			aggMap[fc] = addAgg("sum", arg, fc.Distinct, "sum", scalarType(arg, b.f))
		case "min", "max":
			aggMap[fc] = addAgg(fc.Name, arg, fc.Distinct, fc.Name, scalarType(arg, b.f))
		default:
			return nil, nil, fmt.Errorf("sql: unknown aggregate %q", fc.Name)
		}
	}

	tree = ops.NewExpr(&ops.GbAgg{GroupCols: groupCols, Aggs: aggElems}, tree)

	if len(postElems) > 0 {
		// Keep group columns and aggregate outputs visible alongside the
		// computed averages.
		for _, g := range groupCols {
			if ref := b.f.Lookup(g); ref != nil {
				postElems = append(postElems, ops.ProjElem{Col: ref, Expr: ops.NewIdent(g, ref.Type)})
			}
		}
		for _, ae := range aggElems {
			postElems = append(postElems, ops.ProjElem{Col: ae.Col, Expr: ops.NewIdent(ae.Col.ID, ae.Col.Type)})
		}
		tree = ops.NewExpr(&ops.Project{Elems: postElems}, tree)
	}

	// The full pre-aggregation scope stays visible; references to grouped
	// expressions are substituted structurally by substGroupExprs, and any
	// reference to a non-grouped column surfaces as an execution-time
	// unbound-column error.
	return tree, groupExprs, nil
}

// ---------------------------------------------------------------------------
// Window functions

var windowNames = map[string]bool{"rank": true, "row_number": true, "sum": true, "count": true, "min": true, "max": true}

func collectWindows(blk *SelectBlock) []*FuncCall {
	var out []*FuncCall
	for _, item := range blk.Items {
		if item.Star {
			continue
		}
		walkExpr(item.Expr, func(x Expr) bool {
			if fc, ok := x.(*FuncCall); ok && fc.Over != nil {
				out = append(out, fc)
				return false
			}
			return true
		})
	}
	return out
}

func (b *binder) bindWindows(wins []*FuncCall, tree *ops.Expr, sc *scope,
	aggMap map[*FuncCall]*md.ColRef, winMap map[*FuncCall]*md.ColRef) (*ops.Expr, error) {

	// All window functions must share one OVER clause in this dialect (one
	// Window operator); verify and bind the shared spec from the first.
	first := wins[0].Over
	var partCols []base.ColID
	for _, pe := range first.PartitionBy {
		se, err := b.bindExpr(pe, sc, aggMap)
		if err != nil {
			return nil, err
		}
		id, ok := se.(*ops.Ident)
		if !ok {
			return nil, fmt.Errorf("sql: PARTITION BY supports simple columns only")
		}
		partCols = append(partCols, id.Col)
	}
	var order props.OrderSpec
	for _, oi := range first.OrderBy {
		se, err := b.bindExpr(oi.Expr, sc, aggMap)
		if err != nil {
			return nil, err
		}
		id, ok := se.(*ops.Ident)
		if !ok {
			return nil, fmt.Errorf("sql: window ORDER BY supports simple columns only")
		}
		order.Items = append(order.Items, props.OrderItem{Col: id.Col, Desc: oi.Desc})
	}

	var elems []ops.WinElem
	for _, fc := range wins {
		if !windowNames[fc.Name] {
			return nil, fmt.Errorf("sql: unknown window function %q", fc.Name)
		}
		var arg ops.ScalarExpr
		if len(fc.Args) == 1 {
			a, err := b.bindExpr(fc.Args[0], sc, aggMap)
			if err != nil {
				return nil, err
			}
			arg = a
		}
		typ := base.TInt
		if arg != nil {
			typ = scalarType(arg, b.f)
		}
		ref := b.f.NewComputedColumn(fc.Name, typ)
		elems = append(elems, ops.WinElem{Col: ref, Fn: &ops.WinFunc{Name: fc.Name, Arg: arg}})
		winMap[fc] = ref
		sc.add("", fc.Name, ref)
	}
	return ops.NewExpr(&ops.Window{PartitionCols: partCols, Order: order, Wins: elems}, tree), nil
}
