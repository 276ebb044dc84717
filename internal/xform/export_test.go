package xform

import (
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/stats"
)

// EachJoinSplit calls f with the predicate and both sides' statistics of
// every split of every subset of the n-ary join ge's inputs, cross products
// included, each subset joined as the cheapest of its splits as in the DP
// expansion.
func EachJoinSplit(ctx *Context, ge *memo.GroupExpr, f func(pred ops.ScalarExpr, l, r *stats.Stats)) error {
	g, err := buildJoinGraph(ctx, ge)
	if g == nil {
		return err
	}
	full := uint32(1<<uint(len(g.leaves))) - 1
	best := make([]joinTree, full+1)
	for _, leaf := range g.leaves {
		best[leaf.mask] = leaf
	}
	for mask := uint32(1); mask <= full; mask++ {
		if best[mask].mask != 0 {
			continue
		}
		var bestTree joinTree
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask &^ sub
			if sub > other {
				continue
			}
			l, r := &best[sub], &best[other]
			t := g.combine(ctx, l, r, g.between(sub, other))
			f(t.pred, l.statsOf(ctx), r.statsOf(ctx))
			if bestTree.mask == 0 || t.cost < bestTree.cost {
				bestTree = t
			}
		}
		best[mask] = bestTree
	}
	return nil
}
