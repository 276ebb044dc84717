package xform

import (
	"sort"

	"orca/internal/base"
	"orca/internal/ops"
)

// The reference for the conjunct table: the join rules' predicate split as
// it was written over scalar trees, before conjunct ids. splitJoinPreds
// recomputes every conjunct's columns and canonAnd re-sorts by structural
// hash on every call; the table must give Equal predicates
// (TestJoinRulesMatchReference).

// canonAnd conjoins predicates in canonical order (by structural hash).
func canonAnd(preds []ops.ScalarExpr) ops.ScalarExpr {
	if len(preds) < 2 {
		return ops.And(preds...)
	}
	sorted := make([]ops.ScalarExpr, len(preds))
	copy(sorted, preds)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Hash() < sorted[j].Hash() })
	return ops.And(sorted...)
}

// splitJoinPreds partitions conjuncts into those fully covered by the
// columns of the two subtrees forming a new join (inner) and the rest
// (outer). ok is false when no inner conjunct references both subtrees —
// the new join would be a manufactured cross product.
func splitJoinPreds(all []ops.ScalarExpr, lCols, rCols base.ColSet) (inner, outer ops.ScalarExpr, ok bool) {
	both := lCols.Union(rCols)
	var innerPreds, outerPreds []ops.ScalarExpr
	joinsBoth := false
	for _, p := range all {
		pc := p.Cols()
		if pc.SubsetOf(both) {
			innerPreds = append(innerPreds, p)
			if pc.Intersects(lCols) && pc.Intersects(rCols) {
				joinsBoth = true
			}
		} else {
			outerPreds = append(outerPreds, p)
		}
	}
	if !joinsBoth {
		return nil, nil, false
	}
	return canonAnd(innerPreds), canonAnd(outerPreds), true
}

// crossingRef is the expansions' reference: the conjuncts of an NAryJoin
// whose columns the two sides cover, with some on each side.
func crossingRef(preds []ops.ScalarExpr, lCols, rCols base.ColSet) ops.ScalarExpr {
	var out []ops.ScalarExpr
	for _, p := range preds {
		pc := p.Cols()
		if pc.SubsetOf(lCols.Union(rCols)) && pc.Intersects(lCols) && pc.Intersects(rCols) {
			out = append(out, p)
		}
	}
	return canonAnd(out)
}

// Test-only handles for the external test package.
var (
	SplitJoinPredsRef = splitJoinPreds
	CrossingRef       = crossingRef
)

// NumConjuncts reports how many conjuncts the search's table has ids for.
func NumConjuncts(ctx *Context) int { return len(ctx.conj.exprs) }

// TamperConjunct rewrites the columns the table recorded for a conjunct,
// so a test can show that a wrong table does not go unnoticed.
func TamperConjunct(ctx *Context, e ops.ScalarExpr, cols []base.ColID) {
	t := ctx.conjuncts()
	t.cols[t.id(e)] = cols
}
