package xform

import (
	"cmp"
	"math/bits"
	"slices"
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
	_, err := ctx.Insert(&ops.Join{Type: ops.InnerJoin, Pred: j.Pred}, ge.Group().ID, ge.Children[1], ge.Children[0])
	return err
}

// conjTable is the join rules' conjunct table. The rules only move a join's
// conjuncts between the joins they create, so one search's table gives each
// conjunct (by pointer identity) an id and its columns once, reads each
// join predicate as its id set once, and builds one predicate per id set.
// An id set is a bitset in bytes (bit id%8 of byte id/8) without trailing
// zero bytes, so equal sets are equal strings; 64 conjuncts fit in 8 bytes.
type conjTable struct {
	exprs   []ops.ScalarExpr          // by id
	cols    [][]base.ColID            // by id
	ids     map[ops.ScalarExpr]int    // conjunct → id
	sets    map[ops.ScalarExpr]string // join predicate → its id set
	preds   map[string]ops.ScalarExpr // id set → its predicate
	in, out []byte                    // scratch id sets
	terms   []ops.ScalarExpr
}

// conjuncts returns the search's conjunct table.
func (ctx *Context) conjuncts() *conjTable {
	if t := &ctx.conj; t.ids == nil {
		t.ids, t.sets, t.preds = map[ops.ScalarExpr]int{}, map[ops.ScalarExpr]string{}, map[string]ops.ScalarExpr{}
	}
	return &ctx.conj
}

func addID(s []byte, id int) []byte {
	for len(s) <= id>>3 {
		s = append(s, 0)
	}
	s[id>>3] |= 1 << (id & 7)
	return s
}

func (t *conjTable) id(e ops.ScalarExpr) int {
	if id, ok := t.ids[e]; ok {
		return id
	}
	t.ids[e] = len(t.exprs)
	t.exprs, t.cols = append(t.exprs, e), append(t.cols, e.Cols().Ordered())
	return len(t.exprs) - 1
}

// setOf returns the id set of a join predicate's conjuncts.
func (t *conjTable) setOf(pred ops.ScalarExpr) string {
	if s, ok := t.sets[pred]; ok {
		return s
	}
	t.in = t.in[:0]
	for _, c := range ops.Conjuncts(pred) {
		t.in = addID(t.in, t.id(c))
	}
	t.sets[pred] = string(t.in)
	return t.sets[pred]
}

// pred returns the one predicate of an id set: its conjuncts stably sorted
// by structural hash, then conjoined. BoolOp hashing is order-sensitive, so
// without one order per set rotations would rebuild a set in ever-new
// orders the Memo never dedups — a factorial blowup on 6-way joins.
func (t *conjTable) pred(s []byte) ops.ScalarExpr {
	if p, ok := t.preds[string(s)]; ok {
		return p
	}
	t.terms = t.terms[:0]
	for i, b := range s {
		for ; b != 0; b &= b - 1 {
			t.terms = append(t.terms, t.exprs[i<<3|bits.TrailingZeros8(b)])
		}
	}
	slices.SortStableFunc(t.terms, func(a, b ops.ScalarExpr) int { return cmp.Compare(a.Hash(), b.Hash()) })
	p := ops.And(t.terms...)
	t.preds[string(s)] = p
	return p
}

// split partitions two join predicates' conjuncts between the joins of a
// rotation: those whose columns l and r cover go to the new l ⋈ r (inner),
// the rest stay above it (outer). ok is false when no inner conjunct
// references both l and r (a manufactured cross product). The predicates
// share no conjunct; TestJoinRulesMatchReference checks it.
func (t *conjTable) split(p, q string, l, r base.ColSet) (inner, outer ops.ScalarExpr, ok bool) {
	t.in, t.out = t.in[:0], t.out[:0]
	for _, s := range [2]string{p, q} {
		for i := 0; i < len(s); i++ {
			for b := s[i]; b != 0; b &= b - 1 {
				id := i<<3 | bits.TrailingZeros8(b)
				inL, inR, covered := false, false, true
				for _, c := range t.cols[id] {
					cl, cr := l.Contains(c), r.Contains(c)
					inL, inR, covered = inL || cl, inR || cr, covered && (cl || cr)
				}
				if !covered {
					t.out = addID(t.out, id)
					continue
				}
				t.in = addID(t.in, id)
				ok = ok || inL && inR
			}
		}
	}
	if !ok {
		return nil, nil, false
	}
	return t.pred(t.in), t.pred(t.out), true
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
	t := ctx.conjuncts()
	topSet := t.setOf(ge.Op.(*ops.Join).Pred)
	cGroup := ge.Children[1]
	cCols := ctx.Memo.Group(cGroup).Logical().OutputCols

	for _, lower := range ctx.Memo.Group(ge.Children[0]).Exprs() {
		lj, ok := lower.Op.(*ops.Join)
		if !ok || lj.Type != ops.InnerJoin {
			continue
		}
		aGroup, bGroup := lower.Children[0], lower.Children[1]
		inner, outer, ok := t.split(topSet, t.setOf(lj.Pred), ctx.Memo.Group(bGroup).Logical().OutputCols, cCols)
		if !ok {
			continue
		}
		bc, err := ctx.Insert(&ops.Join{Type: ops.InnerJoin, Pred: inner}, -1, bGroup, cGroup)
		if err != nil {
			return err
		}
		if _, err := ctx.Insert(&ops.Join{Type: ops.InnerJoin, Pred: outer}, ge.Group().ID, aGroup, bc.Group().ID); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// N-ary join expansion (paper §7.2.2 "Join Ordering": "a number of join
// ordering optimizations based on dynamic programming, left-deep join trees
// and cardinality-based join ordering")

// joinGraph is the shared machinery of the expansion rules. Subsets of the
// inputs are bitmasks; each conjunct records, per column, the inputs that
// output that column.
type joinGraph struct {
	t      *conjTable
	leaves []joinTree
	ids    []int      // conjunct ids, in NAryJoin order
	colIn  [][]uint32 // per conjunct, per column: the inputs holding it
	buf    []byte
}

// buildJoinGraph returns nil for fewer than two inputs or on an error.
func buildJoinGraph(ctx *Context, ge *memo.GroupExpr) (*joinGraph, error) {
	if len(ge.Children) < 2 {
		return nil, nil
	}
	g := &joinGraph{t: ctx.conjuncts()}
	for i, cid := range ge.Children {
		s, err := ctx.Memo.DeriveStats(cid, ctx.Stats)
		if err != nil {
			return nil, err
		}
		g.leaves = append(g.leaves, joinTree{mask: 1 << uint(i), group: cid, rows: s.Rows, stats: s})
	}
	for _, p := range ge.Op.(*ops.NAryJoin).Preds {
		id := g.t.id(p)
		in := make([]uint32, len(g.t.cols[id]))
		for k, c := range g.t.cols[id] {
			for i, cid := range ge.Children {
				if ctx.Memo.Group(cid).Logical().OutputCols.Contains(c) {
					in[k] |= 1 << uint(i)
				}
			}
		}
		g.ids, g.colIn = append(g.ids, id), append(g.colIn, in)
	}
	return g, nil
}

// between returns the id set of the conjuncts that join two subsets: all
// their columns come from l or r, and some from each.
func (g *joinGraph) between(l, r uint32) []byte {
	g.buf = g.buf[:0]
next:
	for k, in := range g.colIn {
		inL, inR := false, false
		for _, m := range in {
			if m&(l|r) == 0 {
				continue next
			}
			inL, inR = inL || m&l != 0, inR || m&r != 0
		}
		if inL && inR {
			g.buf = addID(g.buf, g.ids[k])
		}
	}
	return g.buf
}

// joinTree is an input (l == nil) or the join of two subtrees.
type joinTree struct {
	mask  uint32
	group memo.GroupID
	l, r  *joinTree
	pred  ops.ScalarExpr
	rows  float64
	stats *stats.Stats
	cost  float64 // cumulative intermediate-result size, the DP objective
}

// combine joins two subtrees over the conjuncts between them.
func (g *joinGraph) combine(ctx *Context, l, r *joinTree, between []byte) joinTree {
	pred := g.t.pred(between)
	st := ctx.Stats.DeriveJoin(ops.InnerJoin, pred, l.stats, r.stats)
	return joinTree{mask: l.mask | r.mask, l: l, r: r, pred: pred, rows: st.Rows, stats: st, cost: l.cost + r.cost + st.Rows}
}

// insert copies the tree into the Memo one level at a time, subtrees into
// fresh groups and the root into target, and returns the root's group.
func (t *joinTree) insert(ctx *Context, target memo.GroupID) (memo.GroupID, error) {
	if t.l == nil {
		return t.group, nil
	}
	l, err := t.l.insert(ctx, -1)
	if err != nil {
		return 0, err
	}
	r, err := t.r.insert(ctx, -1)
	if err != nil {
		return 0, err
	}
	ge, err := ctx.Insert(&ops.Join{Type: ops.InnerJoin, Pred: t.pred}, target, l, r)
	if err != nil {
		return 0, err
	}
	return ge.Group().ID, nil
}

// joinOrderDPLimit is the largest n-ary join the DP rule enumerates
// exhaustively (2^n subsets); larger joins are left to the greedy rule.
const joinOrderDPLimit = 10

// applyExpandNAryJoinDP enumerates bushy join trees over connected
// subgraphs with dynamic programming (DPsub) and copies the cheapest tree
// into the group.
func applyExpandNAryJoinDP(ctx *Context, ge *memo.GroupExpr) error {
	n := len(ge.Children)
	if n > joinOrderDPLimit {
		return nil
	}
	g, err := buildJoinGraph(ctx, ge)
	if g == nil {
		return err
	}
	full := uint32(1<<uint(n)) - 1
	best := make([]joinTree, full+1) // by subset; mask 0 = none yet
	for _, leaf := range g.leaves {
		best[leaf.mask] = leaf
	}
	for mask := uint32(1); mask <= full; mask++ {
		if best[mask].mask != 0 {
			continue // an input
		}
		// Enumerate proper subset splits, each once. Prefer connected
		// splits; a subset with none falls back to any split (a cross
		// product), penalised so it only survives when unavoidable.
		var bestTree joinTree
		for pass := 0; pass < 2 && bestTree.mask == 0; pass++ {
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				other := mask &^ sub
				l, r := &best[sub], &best[other]
				if sub > other || l.mask == 0 || r.mask == 0 {
					continue
				}
				between := g.between(sub, other)
				if pass == 0 && len(between) == 0 {
					continue
				}
				t := g.combine(ctx, l, r, between)
				if pass == 1 {
					t.cost += t.rows * 10
				}
				if bestTree.mask == 0 || t.cost < bestTree.cost {
					bestTree = t
				}
			}
		}
		best[mask] = bestTree
	}
	if best[full].mask == 0 {
		return gpos.Raise(gpos.CompOptimizer, "JoinOrderDP", "no join tree for %d-way join", n)
	}
	_, err = best[full].insert(ctx, ge.Group().ID)
	return err
}

// applyExpandNAryJoinGreedy builds a join tree by repeatedly joining the
// pair with the smallest estimated result (cardinality-based ordering); it
// covers joins too large for DP.
func applyExpandNAryJoinGreedy(ctx *Context, ge *memo.GroupExpr) error {
	g, err := buildJoinGraph(ctx, ge)
	if g == nil {
		return err
	}
	trees := make([]*joinTree, len(g.leaves))
	for i := range trees {
		trees[i] = &g.leaves[i]
	}
	// Start from the smallest relation for determinism.
	sort.SliceStable(trees, func(i, j int) bool { return trees[i].rows < trees[j].rows })
	// Join the pair with the fewest rows among the connected pairs, or
	// among all pairs when none is connected.
	for len(trees) > 1 {
		bi, bj, conn := -1, -1, false
		var merged joinTree
		for i := range trees {
			for j := i + 1; j < len(trees); j++ {
				between := g.between(trees[i].mask, trees[j].mask)
				c := len(between) > 0
				if conn && !c {
					continue
				}
				t := g.combine(ctx, trees[i], trees[j], between)
				if bi == -1 || c && !conn || t.rows < merged.rows {
					bi, bj, conn, merged = i, j, c, t
				}
			}
		}
		trees[bi] = &merged
		trees = append(trees[:bj], trees[bj+1:]...)
	}
	_, err = trees[0].insert(ctx, ge.Group().ID)
	return err
}

// applyExpandNAryJoinLeftDeep emits the literal left-deep tree in the order
// the query listed the inputs; it guarantees the group always has at least
// one binary expansion even when the cost-based expansions are disabled,
// and is the shape rule-based systems (paper §7.3.2: Impala, Stinger) are
// stuck with.
func applyExpandNAryJoinLeftDeep(ctx *Context, ge *memo.GroupExpr) error {
	g, err := buildJoinGraph(ctx, ge)
	if g == nil {
		return err
	}
	acc := g.leaves[0]
	for i := range g.leaves[1:] {
		l, r := acc, &g.leaves[i+1]
		acc = g.combine(ctx, &l, r, g.between(l.mask, r.mask))
	}
	_, err = acc.insert(ctx, ge.Group().ID)
	return err
}
