package memo

import (
	"orca/internal/fault"
	"orca/internal/ops"
	"orca/internal/stats"
)

// DeriveStats computes and attaches statistics to a group (paper §4.1 step
// 2): it picks the group expression with the highest promise of delivering
// reliable statistics, recursively derives the child groups, and combines
// the child statistics objects. The derived object is attached to the group
// so later requests reuse it, keeping derivation cost manageable on the
// compact Memo. Derivation is on demand — the search scheduler triggers it
// per group when the group is first costed, so only groups reached by search
// carry statistics.
func (m *Memo) DeriveStats(gid GroupID, ctx *stats.Context) (*stats.Stats, error) {
	g := m.Group(gid)
	if s := g.Stats(); s != nil {
		return s, nil
	}
	if err := fault.Inject(fault.PointMemoStatsDerive); err != nil {
		return nil, err
	}
	ge := g.promisingExpr()
	if ge == nil {
		s := stats.NewStats(1)
		g.SetStats(s)
		return s, nil
	}

	// CTE anchors derive the producer side first and register its statistics
	// so consumer groups (leaves elsewhere in the body) can find them.
	if anchor, ok := ge.Op.(*ops.CTEAnchor); ok {
		prodStats, err := m.DeriveStats(ge.Children[0], ctx)
		if err != nil {
			return nil, err
		}
		ctx.RegisterCTE(anchor.ID, prodStats)
	}

	// A consumer reached before its anchor: with on-demand derivation there
	// is no root-first walk guaranteeing the producer was visited, so pull
	// the producer group in through the Memo's anchor registry.
	if cons, ok := ge.Op.(*ops.CTEConsumer); ok && !ctx.HasCTE(cons.ID) {
		if prod, found := m.CTEProducer(cons.ID); found {
			prodStats, err := m.DeriveStats(prod, ctx)
			if err != nil {
				return nil, err
			}
			ctx.RegisterCTE(cons.ID, prodStats)
		}
	}

	childStats := make([]*stats.Stats, len(ge.Children))
	for i, cid := range ge.Children {
		cs, err := m.DeriveStats(cid, ctx)
		if err != nil {
			return nil, err
		}
		childStats[i] = cs
	}
	s, err := ctx.Derive(ge.Op, childStats)
	if err != nil {
		return nil, err
	}
	g.SetStats(s)
	return s, nil
}

// StatsSources returns the groups whose statistics this group's derivation
// will consult: the promising expression's children, plus the CTE producer
// group when the promising expression is a consumer whose producer is not
// registered yet. The search scheduler uses this to run statistics
// derivation of the inputs as dependency jobs (deduplicated by goal) before
// combining them. It returns nil once the group's statistics exist.
func (m *Memo) StatsSources(gid GroupID, ctx *stats.Context) []GroupID {
	g := m.Group(gid)
	if g.Stats() != nil {
		return nil
	}
	ge := g.promisingExpr()
	if ge == nil {
		return nil
	}
	srcs := append([]GroupID(nil), ge.Children...)
	if cons, ok := ge.Op.(*ops.CTEConsumer); ok && !ctx.HasCTE(cons.ID) {
		if prod, found := m.CTEProducer(cons.ID); found {
			srcs = append(srcs, prod)
		}
	}
	return srcs
}

// promisingExpr selects the expression used for statistics derivation. The
// promise heuristic follows the paper: expressions with fewer join
// conditions are more promising because estimation errors compound across
// conditions; logical expressions are preferred over physical ones.
func (g *Group) promisingExpr() *GroupExpr {
	exprs := g.Exprs()
	var best *GroupExpr
	bestScore := 1 << 30
	for _, ge := range exprs {
		if _, isLogical := ge.Op.(ops.Logical); !isLogical {
			continue
		}
		score := statsPromise(ge.Op)
		if best == nil || score < bestScore {
			best = ge
			bestScore = score
		}
	}
	if best == nil && len(exprs) > 0 {
		best = exprs[0]
	}
	return best
}

// statsPromise scores an operator for statistics derivation; lower is more
// promising.
func statsPromise(op ops.Operator) int {
	switch o := op.(type) {
	case *ops.Join:
		return len(ops.Conjuncts(o.Pred))
	case *ops.NAryJoin:
		// The collapsed join applies every predicate at the ideal position;
		// prefer it over partially-ordered binary expansions.
		return 0
	default:
		return 1
	}
}
