package core

import (
	"orca/internal/base"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
)

// Normalize rewrites a bound logical tree into the canonical form the Memo
// consumes: subqueries are unnested into (semi/anti/inner) joins — Orca's
// unified subquery representation "to detect deeply correlated predicates
// and pull them up into joins to avoid repeated execution of subquery
// expressions" (paper §7.2.2) — predicates are pushed down to their lowest
// valid position, and contiguous inner joins are collapsed into n-ary joins
// for the join-ordering rules.
func Normalize(e *ops.Expr, f *md.ColumnFactory) (*ops.Expr, error) {
	n := &normalizer{f: f}
	out, err := n.unnest(e)
	if err != nil {
		return nil, err
	}
	out = pushPreds(out, nil)
	out = collapseJoins(out)
	return out, nil
}

type normalizer struct {
	f *md.ColumnFactory
}

// ---------------------------------------------------------------------------
// Subquery unnesting

// unnest copies a node on write: the caller's tree is never modified, so a
// failed pass leaves the bound query intact for the diagnostic dump.
func (n *normalizer) unnest(e *ops.Expr) (*ops.Expr, error) {
	var kids []*ops.Expr
	for i, c := range e.Children {
		nc, err := n.unnest(c)
		if err != nil {
			return nil, err
		}
		if nc != c && kids == nil {
			kids = append([]*ops.Expr(nil), e.Children...)
		}
		if kids != nil {
			kids[i] = nc
		}
	}
	if kids != nil {
		e = ops.NewExpr(e.Op, kids...)
	}
	if sel, ok := e.Op.(*ops.Select); ok {
		return n.unnestSelect(e, sel)
	}
	return e, nil
}

func (n *normalizer) unnestSelect(e *ops.Expr, sel *ops.Select) (*ops.Expr, error) {
	result := e.Children[0]
	var keep []ops.ScalarExpr
	for _, c := range ops.Conjuncts(sel.Pred) {
		outerCols := ops.OutputColsOf(result)
		switch x := c.(type) {
		case *ops.Subquery:
			r, err := n.unnestQuantified(result, x, outerCols)
			if err != nil {
				return nil, err
			}
			result = r
		case *ops.Cmp:
			if sq, other, op, ok := scalarSubqueryCmp(x); ok {
				r, err := n.unnestScalarCmp(result, sq, other, op, outerCols)
				if err != nil {
					return nil, err
				}
				result = r
				continue
			}
			keep = append(keep, c)
		default:
			keep = append(keep, c)
		}
	}
	if result == e.Children[0] && len(keep) > 0 {
		return e, nil // no subquery to unnest: keep the node as bound
	}
	if len(keep) > 0 {
		return ops.NewExpr(&ops.Select{Pred: ops.And(keep...)}, result), nil
	}
	return result, nil
}

// scalarSubqueryCmp recognizes `expr <op> (subquery)` in either operand
// order, normalizing the subquery to the right side.
func scalarSubqueryCmp(c *ops.Cmp) (sq *ops.Subquery, other ops.ScalarExpr, op ops.CmpOp, ok bool) {
	if s, isSub := c.R.(*ops.Subquery); isSub && s.Kind == ops.SubScalar {
		return s, c.L, c.Op, true
	}
	if s, isSub := c.L.(*ops.Subquery); isSub && s.Kind == ops.SubScalar {
		return s, c.R, c.Op.Commuted(), true
	}
	return nil, nil, 0, false
}

// unnestQuantified turns EXISTS / NOT EXISTS / IN / NOT IN into semi or anti
// joins, hoisting correlated predicates into the join condition.
func (n *normalizer) unnestQuantified(outer *ops.Expr, sq *ops.Subquery, outerCols base.ColSet) (*ops.Expr, error) {
	sub, corr, err := n.stripCorrelated(sq.Input, outerCols, false)
	if err != nil {
		return nil, err
	}
	if free := ops.FreeCols(sub).Intersect(outerCols); !free.Empty() {
		return nil, gpos.Raise(gpos.CompOptimizer, "Decorrelation",
			"unsupported correlation structure: residual outer references %s", free)
	}
	preds := corr
	var jt ops.JoinType
	switch sq.Kind {
	case ops.SubExists:
		jt = ops.SemiJoin
	case ops.SubNotExists:
		jt = ops.AntiJoin
	case ops.SubIn:
		jt = ops.SemiJoin
		preds = append(preds, ops.Eq(sq.Test, ops.NewIdent(sq.OutCol, base.TUnknown)))
	case ops.SubNotIn:
		jt = ops.AntiJoin
		preds = append(preds, ops.Eq(sq.Test, ops.NewIdent(sq.OutCol, base.TUnknown)))
	default:
		return nil, gpos.Raise(gpos.CompOptimizer, "Decorrelation", "unexpected subquery kind %d", sq.Kind)
	}
	return ops.NewExpr(&ops.Join{Type: jt, Pred: ops.And(preds...)}, outer, sub), nil
}

// unnestScalarCmp turns `expr <op> (SELECT agg ...)` into a join against the
// (possibly decorrelated) subquery. For a correlated aggregate subquery the
// correlation columns are added to the aggregate's grouping — the classic
// magic-set-free decorrelation — and become equi-join keys.
//
// Note on semantics: an inner join drops outer rows whose subquery result is
// empty; a comparison with the NULL produced for such rows also rejects
// them, so the rewrite is equivalence-preserving for comparisons (the
// count(*)-over-empty-group corner is documented in DESIGN.md).
func (n *normalizer) unnestScalarCmp(outer *ops.Expr, sq *ops.Subquery, other ops.ScalarExpr, op ops.CmpOp, outerCols base.ColSet) (*ops.Expr, error) {
	sub := sq.Input

	// Peel Project nodes above the aggregate, remembering them.
	var projChain []*ops.Project
	node := sub
	for {
		if p, ok := node.Op.(*ops.Project); ok {
			projChain = append(projChain, p)
			node = node.Children[0]
			continue
		}
		break
	}

	var corr []ops.ScalarExpr
	if agg, ok := node.Op.(*ops.GbAgg); ok {
		inner, preds, err := n.stripCorrelated(node.Children[0], outerCols, true)
		if err != nil {
			return nil, err
		}
		corr = preds
		if len(preds) > 0 {
			// The grouping rewrite is only sound for equality correlation:
			// grouping by the inner column computes one aggregate per
			// correlation key. Reject anything else.
			for _, p := range preds {
				cmp, ok := p.(*ops.Cmp)
				if !ok || cmp.Op != ops.CmpEq {
					return nil, gpos.Raise(gpos.CompOptimizer, "Decorrelation",
						"unsupported non-equality correlation in aggregate subquery: %s", p)
				}
				_, lid := cmp.L.(*ops.Ident)
				_, rid := cmp.R.(*ops.Ident)
				if !lid || !rid {
					return nil, gpos.Raise(gpos.CompOptimizer, "Decorrelation",
						"unsupported correlation expression in aggregate subquery: %s", p)
				}
			}
			// Group additionally by the inner correlation columns so the
			// aggregate computes one value per correlation key.
			groupCols := append([]base.ColID(nil), agg.GroupCols...)
			var passUp []base.ColID
			for _, p := range preds {
				innerCols := p.Cols().Difference(outerCols)
				for _, c := range innerCols.Ordered() {
					if !base.MakeColSet(groupCols...).Contains(c) {
						groupCols = append(groupCols, c)
					}
					passUp = append(passUp, c)
				}
			}
			node = ops.NewExpr(&ops.GbAgg{GroupCols: groupCols, Aggs: agg.Aggs}, inner)
			// Rebuild the project chain, passing the correlation columns up.
			for i := len(projChain) - 1; i >= 0; i-- {
				elems := append([]ops.ProjElem(nil), projChain[i].Elems...)
				have := projChain[i].OutputCols()
				for _, c := range passUp {
					if !have.Contains(c) {
						elems = append(elems, ops.ProjElem{
							Col:  n.colRefFor(c),
							Expr: ops.NewIdent(c, base.TUnknown),
						})
					}
				}
				node = ops.NewExpr(&ops.Project{Elems: elems}, node)
			}
			sub = node
		} else {
			// Uncorrelated aggregate: keep the original tree.
			if len(projChain) > 0 {
				sub = sq.Input
			} else {
				sub = node
			}
		}
	} else {
		stripped, preds, err := n.stripCorrelated(sub, outerCols, false)
		if err != nil {
			return nil, err
		}
		sub = stripped
		corr = preds
	}

	if free := ops.FreeCols(sub).Intersect(outerCols); !free.Empty() {
		return nil, gpos.Raise(gpos.CompOptimizer, "Decorrelation",
			"unsupported correlated scalar subquery: residual outer references %s", free)
	}
	preds := append(corr, ops.NewCmp(op, other, ops.NewIdent(sq.OutCol, base.TUnknown)))
	return ops.NewExpr(&ops.Join{Type: ops.InnerJoin, Pred: ops.And(preds...)}, outer, sub), nil
}

// colRefFor resolves (or fabricates) the ColRef for an existing column id.
func (n *normalizer) colRefFor(c base.ColID) *md.ColRef {
	if ref := n.f.Lookup(c); ref != nil {
		return ref
	}
	return &md.ColRef{ID: c, Name: "col", Type: base.TUnknown}
}

// stripCorrelated removes predicates referencing outer columns from Select
// nodes (and inner-join conditions) inside the subtree and returns them. It
// descends through Select, inner Join, Project and — when intoAgg is set —
// GbAgg nodes; correlation anywhere else is unsupported.
func (n *normalizer) stripCorrelated(e *ops.Expr, outerCols base.ColSet, intoAgg bool) (*ops.Expr, []ops.ScalarExpr, error) {
	switch op := e.Op.(type) {
	case *ops.Select:
		child, corr, err := n.stripCorrelated(e.Children[0], outerCols, intoAgg)
		if err != nil {
			return nil, nil, err
		}
		var keep []ops.ScalarExpr
		for _, c := range ops.Conjuncts(op.Pred) {
			if c.Cols().Intersects(outerCols) {
				corr = append(corr, c)
			} else {
				keep = append(keep, c)
			}
		}
		if len(keep) > 0 {
			return ops.NewExpr(&ops.Select{Pred: ops.And(keep...)}, child), corr, nil
		}
		return child, corr, nil

	case *ops.Join:
		if op.Type != ops.InnerJoin {
			return e, nil, nil
		}
		l, lc, err := n.stripCorrelated(e.Children[0], outerCols, false)
		if err != nil {
			return nil, nil, err
		}
		r, rc, err := n.stripCorrelated(e.Children[1], outerCols, false)
		if err != nil {
			return nil, nil, err
		}
		corr := append(lc, rc...)
		var keep []ops.ScalarExpr
		for _, c := range ops.Conjuncts(op.Pred) {
			if c.Cols().Intersects(outerCols) {
				corr = append(corr, c)
			} else {
				keep = append(keep, c)
			}
		}
		return ops.NewExpr(&ops.Join{Type: op.Type, Pred: ops.And(keep...)}, l, r), corr, nil

	case *ops.Project:
		child, corr, err := n.stripCorrelated(e.Children[0], outerCols, intoAgg)
		if err != nil {
			return nil, nil, err
		}
		if len(corr) == 0 {
			return e, nil, nil
		}
		elems := append([]ops.ProjElem(nil), op.Elems...)
		have := op.OutputCols()
		childOut := ops.OutputColsOf(child)
		for _, p := range corr {
			for _, c := range p.Cols().Difference(outerCols).Ordered() {
				if !have.Contains(c) && childOut.Contains(c) {
					elems = append(elems, ops.ProjElem{Col: n.colRefFor(c), Expr: ops.NewIdent(c, base.TUnknown)})
					have.Add(c)
				}
			}
		}
		return ops.NewExpr(&ops.Project{Elems: elems}, child), corr, nil

	default:
		return e, nil, nil
	}
}
