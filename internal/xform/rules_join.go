package xform

import (
	"math"
	"sort"

	"orca/internal/base"
	"orca/internal/gpos"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/stats"
)

// The rule types, their Name/Kind/Matches/Apply skeletons and DefaultRules
// are generated from defs/rules.opt into rules.gen.go. This file keeps the
// hand-written halves the skeletons delegate to: match<Name> predicates
// (beyond the generated operator type assertion) and apply<Name>
// transformation bodies.

// ---------------------------------------------------------------------------
// JoinCommutativity: InnerJoin(A,B) → InnerJoin(B,A) — the paper's first
// exploration example (§4.1 step 1).

func matchJoinCommutativity(j *ops.Join, _ *memo.GroupExpr) bool {
	return j.Type == ops.InnerJoin
}

func applyJoinCommutativity(ctx *Context, ge *memo.GroupExpr) error {
	j := ge.Op.(*ops.Join)
	_, err := ctx.Insert(
		Op(&ops.Join{Type: ops.InnerJoin, Pred: j.Pred}, Leaf(ge.Children[1]), Leaf(ge.Children[0])),
		ge.Group().ID)
	return err
}

// ---------------------------------------------------------------------------
// JoinAssociativity: (A ⋈ B) ⋈ C → A ⋈ (B ⋈ C), redistributing predicate
// conjuncts to the lowest join where their columns are available. Together
// with commutativity it spans the full cross-product-free join-order space:
// the mirror rotation and the bushy exchange are each a short composition of
// these two through connected intermediates, so their results dedup in the
// Memo (TestJoinEnumerationComplete in internal/tpcds is the contract). The
// n-ary expansion rules below cover large joins without exhaustive
// exploration.

func matchJoinAssociativity(j *ops.Join, _ *memo.GroupExpr) bool {
	return j.Type == ops.InnerJoin
}

func applyJoinAssociativity(ctx *Context, ge *memo.GroupExpr) error {
	top := ge.Op.(*ops.Join)
	leftGroup := ctx.Memo.Group(ge.Children[0])
	cGroup := ge.Children[1]
	cCols := ctx.Memo.Group(cGroup).Logical().OutputCols

	for _, lower := range leftGroup.Exprs() {
		lj, ok := lower.Op.(*ops.Join)
		if !ok || lj.Type != ops.InnerJoin {
			continue
		}
		aGroup, bGroup := lower.Children[0], lower.Children[1]
		bCols := ctx.Memo.Group(bGroup).Logical().OutputCols

		all := append(ops.Conjuncts(top.Pred), ops.Conjuncts(lj.Pred)...)
		inner, outer, ok := splitJoinPreds(all, bCols, cCols)
		if !ok {
			continue
		}
		innerNode := Op(&ops.Join{Type: ops.InnerJoin, Pred: inner}, Leaf(bGroup), Leaf(cGroup))
		if _, err := ctx.Insert(
			Op(&ops.Join{Type: ops.InnerJoin, Pred: outer}, Leaf(aGroup), innerNode),
			ge.Group().ID); err != nil {
			return err
		}
	}
	return nil
}

// canonAnd conjoins predicates in canonical order (by structural hash).
// Rules that rebuild a predicate concatenate conjuncts in a path-dependent
// order, and BoolOp hashing is order-sensitive; without canonicalization
// repeated rotations regenerate the same conjunct set in ever-new orders and
// the memo never dedups them — a factorial blowup on 6-way joins.
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

// ---------------------------------------------------------------------------
// PushSelectThroughJoin: σ(A ⋈ B) → σ'(σ_a(A) ⋈ σ_b(B)) — conjuncts whose
// columns one join side covers move below the join, shrinking the
// intermediate result before the join runs.

func matchPushSelectThroughJoin(s *ops.Select, _ *memo.GroupExpr) bool {
	return s.Pred != nil
}

func applyPushSelectThroughJoin(ctx *Context, ge *memo.GroupExpr) error {
	sel := ge.Op.(*ops.Select)
	childGroup := ctx.Memo.Group(ge.Children[0])

	for _, lower := range childGroup.Exprs() {
		j, ok := lower.Op.(*ops.Join)
		if !ok || j.Type != ops.InnerJoin {
			continue
		}
		lGroup, rGroup := lower.Children[0], lower.Children[1]
		lCols := ctx.Memo.Group(lGroup).Logical().OutputCols
		rCols := ctx.Memo.Group(rGroup).Logical().OutputCols

		var leftPreds, rightPreds, residual []ops.ScalarExpr
		for _, p := range ops.Conjuncts(sel.Pred) {
			switch pc := p.Cols(); {
			case pc.SubsetOf(lCols):
				leftPreds = append(leftPreds, p)
			case pc.SubsetOf(rCols):
				rightPreds = append(rightPreds, p)
			default:
				residual = append(residual, p)
			}
		}
		if len(leftPreds) == 0 && len(rightPreds) == 0 {
			continue // nothing moves; re-inserting would just duplicate
		}
		lNode := Leaf(lGroup)
		if len(leftPreds) > 0 {
			lNode = Op(&ops.Select{Pred: canonAnd(leftPreds)}, lNode)
		}
		rNode := Leaf(rGroup)
		if len(rightPreds) > 0 {
			rNode = Op(&ops.Select{Pred: canonAnd(rightPreds)}, rNode)
		}
		result := Op(&ops.Join{Type: ops.InnerJoin, Pred: j.Pred}, lNode, rNode)
		if len(residual) > 0 {
			result = Op(&ops.Select{Pred: canonAnd(residual)}, result)
		}
		if _, err := ctx.Insert(result, ge.Group().ID); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// PushSelectThroughGbAgg: σ(Γ(X)) → σ'(Γ(σ_g(X))) — conjuncts referencing
// only grouping columns filter groups identically before and after
// aggregation, so they move below it and shrink the aggregation input.

func matchPushSelectThroughGbAgg(s *ops.Select, _ *memo.GroupExpr) bool {
	return s.Pred != nil
}

func applyPushSelectThroughGbAgg(ctx *Context, ge *memo.GroupExpr) error {
	sel := ge.Op.(*ops.Select)
	childGroup := ctx.Memo.Group(ge.Children[0])

	for _, lower := range childGroup.Exprs() {
		agg, ok := lower.Op.(*ops.GbAgg)
		if !ok || len(agg.GroupCols) == 0 {
			continue
		}
		var gcols base.ColSet
		for _, c := range agg.GroupCols {
			gcols.Add(c)
		}
		var movable, residual []ops.ScalarExpr
		for _, p := range ops.Conjuncts(sel.Pred) {
			if p.Cols().SubsetOf(gcols) {
				movable = append(movable, p)
			} else {
				residual = append(residual, p)
			}
		}
		if len(movable) == 0 {
			continue // nothing moves; re-inserting would just duplicate
		}
		filtered := Op(&ops.Select{Pred: canonAnd(movable)}, Leaf(lower.Children[0]))
		result := Op(&ops.GbAgg{GroupCols: agg.GroupCols, Aggs: agg.Aggs}, filtered)
		if len(residual) > 0 {
			result = Op(&ops.Select{Pred: canonAnd(residual)}, result)
		}
		if _, err := ctx.Insert(result, ge.Group().ID); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// N-ary join expansion (paper §7.2.2 "Join Ordering": "a number of join
// ordering optimizations based on dynamic programming, left-deep join trees
// and cardinality-based join ordering")

// joinGraph is the shared machinery of the expansion rules.
type joinGraph struct {
	children []memo.GroupID
	cols     []base.ColSet
	rows     []float64
	st       []*stats.Stats
	preds    []ops.ScalarExpr
}

func buildJoinGraph(ctx *Context, ge *memo.GroupExpr) (*joinGraph, error) {
	nj := ge.Op.(*ops.NAryJoin)
	g := &joinGraph{preds: nj.Preds}
	for _, cid := range ge.Children {
		grp := ctx.Memo.Group(cid)
		s, err := ctx.Memo.DeriveStats(cid, ctx.Stats)
		if err != nil {
			return nil, err
		}
		g.children = append(g.children, cid)
		g.cols = append(g.cols, grp.Logical().OutputCols)
		g.rows = append(g.rows, s.Rows)
		g.st = append(g.st, s)
	}
	return g, nil
}

// colsOf returns the output columns of a subset (bitmask over children).
func (g *joinGraph) colsOf(mask uint32) base.ColSet {
	var s base.ColSet
	for i := range g.children {
		if mask&(1<<uint(i)) != 0 {
			s = s.Union(g.cols[i])
		}
	}
	return s
}

// predsBetween returns the predicates fully covered by the union of two
// subsets that reference both sides (true join conditions), plus those
// covered but not crossing (they were applied earlier).
func (g *joinGraph) predsBetween(l, r uint32) (crossing []ops.ScalarExpr) {
	lc, rc := g.colsOf(l), g.colsOf(r)
	both := lc.Union(rc)
	for _, p := range g.preds {
		pc := p.Cols()
		if pc.SubsetOf(both) && pc.Intersects(lc) && pc.Intersects(rc) {
			crossing = append(crossing, p)
		}
	}
	return crossing
}

// connected reports whether some predicate joins the two subsets.
func (g *joinGraph) connected(l, r uint32) bool { return len(g.predsBetween(l, r)) > 0 }

// estimate computes the estimated cardinality of a join tree node.
type joinTree struct {
	mask  uint32
	node  *Node
	rows  float64
	stats *stats.Stats
	cost  float64 // cumulative intermediate-result size, the DP objective
}

func (g *joinGraph) leafTree(i int) *joinTree {
	return &joinTree{
		mask:  1 << uint(i),
		node:  Leaf(g.children[i]),
		rows:  g.rows[i],
		stats: g.st[i],
	}
}

// combine builds the join of two subtrees, assigning the crossing
// predicates to the new join node.
func (g *joinGraph) combine(ctx *Context, l, r *joinTree) *joinTree {
	preds := g.predsBetween(l.mask, r.mask)
	pred := canonAnd(preds)
	st := ctx.Stats.DeriveJoin(ops.InnerJoin, pred, l.stats, r.stats)
	return &joinTree{
		mask:  l.mask | r.mask,
		node:  Op(&ops.Join{Type: ops.InnerJoin, Pred: pred}, l.node, r.node),
		rows:  st.Rows,
		stats: st,
		cost:  l.cost + r.cost + st.Rows,
	}
}

// joinOrderDPLimit is the largest n-ary join the DP rule enumerates
// exhaustively (2^n subsets); larger joins are left to the greedy rule.
const joinOrderDPLimit = 10

// applyExpandNAryJoinDP enumerates bushy join trees over connected
// subgraphs with dynamic programming (DPsub) and copies the cheapest tree
// into the group.
func applyExpandNAryJoinDP(ctx *Context, ge *memo.GroupExpr) error {
	n := len(ge.Children)
	if n < 2 || n > joinOrderDPLimit {
		return nil
	}
	g, err := buildJoinGraph(ctx, ge)
	if err != nil {
		return err
	}
	full := uint32(1<<uint(n)) - 1
	best := make(map[uint32]*joinTree, 1<<uint(n))
	for i := 0; i < n; i++ {
		best[1<<uint(i)] = g.leafTree(i)
	}
	for mask := uint32(1); mask <= full; mask++ {
		if best[mask] != nil || popcount(mask) < 2 {
			continue
		}
		var bestTree *joinTree
		// Enumerate proper subset splits.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask &^ sub
			if sub > other {
				continue // each split once
			}
			l, r := best[sub], best[other]
			if l == nil || r == nil {
				continue
			}
			// Prefer connected splits; allow cross products only if the
			// subset has no connected split at all (handled after loop).
			if !g.connected(sub, other) {
				continue
			}
			t := g.combine(ctx, l, r)
			if bestTree == nil || t.cost < bestTree.cost {
				bestTree = t
			}
		}
		if bestTree == nil {
			// Disconnected subset: fall back to any split (cross product).
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				other := mask &^ sub
				if sub > other {
					continue
				}
				l, r := best[sub], best[other]
				if l == nil || r == nil {
					continue
				}
				t := g.combine(ctx, l, r)
				// Penalize cross products heavily so they only survive when
				// unavoidable.
				t.cost += t.rows * 10
				if bestTree == nil || t.cost < bestTree.cost {
					bestTree = t
				}
			}
		}
		if bestTree != nil {
			best[mask] = bestTree
		}
	}
	win := best[full]
	if win == nil {
		return gpos.Raise(gpos.CompOptimizer, "JoinOrderDP", "no join tree for %d-way join", n)
	}
	_, err = ctx.Insert(win.node, ge.Group().ID)
	return err
}

func popcount(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// applyExpandNAryJoinGreedy builds a join tree by repeatedly joining the
// pair with the smallest estimated result (cardinality-based ordering); it
// covers joins too large for DP.
func applyExpandNAryJoinGreedy(ctx *Context, ge *memo.GroupExpr) error {
	n := len(ge.Children)
	if n < 2 {
		return nil
	}
	g, err := buildJoinGraph(ctx, ge)
	if err != nil {
		return err
	}
	trees := make([]*joinTree, n)
	for i := 0; i < n; i++ {
		trees[i] = g.leafTree(i)
	}
	// Start from the smallest relation for determinism.
	sort.SliceStable(trees, func(i, j int) bool { return trees[i].rows < trees[j].rows })
	for len(trees) > 1 {
		bi, bj := -1, -1
		bestRows := math.Inf(1)
		connectedFound := false
		for i := 0; i < len(trees); i++ {
			for j := i + 1; j < len(trees); j++ {
				conn := g.connected(trees[i].mask, trees[j].mask)
				if connectedFound && !conn {
					continue
				}
				t := g.combine(ctx, trees[i], trees[j])
				if conn && !connectedFound {
					connectedFound = true
					bi, bj = -1, -1
					bestRows = math.Inf(1)
				}
				if bi == -1 || t.rows < bestRows {
					bestRows = t.rows
					bi, bj = i, j
				}
			}
		}
		merged := g.combine(ctx, trees[bi], trees[bj])
		trees[bi] = merged
		trees = append(trees[:bj], trees[bj+1:]...)
	}
	_, err = ctx.Insert(trees[0].node, ge.Group().ID)
	return err
}

// applyExpandNAryJoinLeftDeep emits the literal left-deep tree in the order
// the query listed the inputs; it guarantees the group always has at least
// one binary expansion even when the cost-based expansions are disabled,
// and is the shape rule-based systems (paper §7.3.2: Impala, Stinger) are
// stuck with.
func applyExpandNAryJoinLeftDeep(ctx *Context, ge *memo.GroupExpr) error {
	n := len(ge.Children)
	if n < 2 {
		return nil
	}
	g, err := buildJoinGraph(ctx, ge)
	if err != nil {
		return err
	}
	acc := g.leafTree(0)
	for i := 1; i < n; i++ {
		acc = g.combine(ctx, acc, g.leafTree(i))
	}
	_, err = ctx.Insert(acc.node, ge.Group().ID)
	return err
}
