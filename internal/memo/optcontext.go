package memo

import (
	"math"
	"strconv"

	"orca/internal/base"
	"orca/internal/ops"
	"orca/internal/props"
)

// InfCost marks an unsatisfiable optimization request.
var InfCost = math.Inf(1)

// OptContext is one entry of a group's hash table (paper Figure 6): an
// optimization request together with the best group expression found for it
// and the linkage needed to extract the plan.
//
// The best candidate is updated as alternatives are costed, so at any point
// during search it holds the best plan found so far — a stage cut off by its
// deadline extracts this best-so-far plan instead of discarding its work.
// Completion is tracked per rule-set epoch: a later stage with new rules
// re-optimizes the context against the same Memo and can only improve it.
type OptContext struct {
	Group *Group
	Req   props.Required

	id   ReqID
	done []uint64 // bitset of rule-set epochs whose optimization completed
	// opened is set once a pass has started costing the request (Open);
	// recost once a later pass has, whose Record calls may meet entries of
	// an earlier one.
	opened, recost bool
	best           *GroupExpr
	// bestCosting is the costing of best's entry as it was offered. A
	// copy, not an id: a later pass may point the entry at a new costing
	// without beating it, and the context keeps the candidate it chose.
	bestCosting costing
}

// Context returns the group's context for an interned request, creating it
// if needed; created reports whether this call created it (the caller then
// owns driving its optimization — this is the job-queue dedup of paper
// §4.2). The group's contexts are told apart by the interned id alone, with
// no Equal() scan.
func (g *Group) Context(id ReqID) (ctx *OptContext, created bool) {
	if c := g.ContextByID(id); c != nil {
		return c, false
	}
	req, _ := g.memo.Req(id)
	c := &OptContext{Group: g, Req: req, id: id}
	g.ctxs = append(g.ctxs, c)
	g.memo.mem.Charge(optCtxSizeBytes())
	return c, true
}

// LookupContext returns the existing context for a request, or nil. A
// request that was never interned by this session cannot have a context.
func (g *Group) LookupContext(req props.Required) *OptContext {
	id, ok := g.memo.LookupReq(req)
	if !ok {
		return nil
	}
	return g.ContextByID(id)
}

// ContextByID returns the existing context for an interned request, or nil.
// A group has few contexts, so this scans them; search reads a child's
// context from the job that optimized it instead.
func (g *Group) ContextByID(id ReqID) *OptContext {
	for _, c := range g.ctxs {
		if c.id == id {
			return c
		}
	}
	return nil
}

// Contexts returns a snapshot of all contexts of the group, in the order
// they were created.
func (g *Group) Contexts() []*OptContext { return append([]*OptContext(nil), g.ctxs...) }

// offer proposes the plan of ge's costing k for this request, keeping it
// if it beats the current best.
func (c *OptContext) offer(ge *GroupExpr, k CostingID) {
	e := ge.group.memo.costing(k)
	if c.best == nil || e.cost < c.bestCosting.cost {
		c.best = ge
		c.bestCosting = *e
	}
}

// Open starts a pass's costing of the request: call it before the pass
// records any alternative through Record.
func (c *OptContext) Open() { c.recost, c.opened = c.opened, true }

// Record adds alternative alt of ge's child requests, whose plan the
// current run's costing k gives and costs (see Memo.CostLocal), to ge's
// local table under this request, and offers it. In the pass that first
// opened the context no entry for the request exists yet, so the entry is
// appended without a search of the chain.
func (c *OptContext) Record(ge *GroupExpr, alt int, k CostingID) {
	ge.record(localEntry{req: c.id, alt: int32(alt), costing: k}, c.recost)
	c.offer(ge, k)
}

// Miss tells the context that alternative alt of ge gives no plan for the
// request in this pass: a child has none, or the delivery misses the
// request. An entry an earlier pass recorded for it is dropped, since its
// children's best plans, and so its plan, are gone; in the pass that first
// opened the context there is none to drop.
func (c *OptContext) Miss(ge *GroupExpr, alt int) {
	if c.recost {
		ge.unlink(c.id, int32(alt))
	}
}

// Best returns the best expression, its winning candidate, and whether any
// plan satisfies the request.
func (c *OptContext) Best() (*GroupExpr, Candidate, bool) {
	if c.best == nil {
		return nil, Candidate{}, false
	}
	return c.best, c.Group.memo.view(0, &c.bestCosting, len(c.best.Children)), true
}

// BestDelivered returns what costing a parent reads of the best plan: the
// interned id of the properties it delivers (see Memo.Derived) and its
// cost, without building the candidate view. ok is false when no plan
// satisfies the request.
func (c *OptContext) BestDelivered() (d DerivedID, cost float64, ok bool) {
	if c.best == nil {
		return 0, InfCost, false
	}
	return c.bestCosting.delivered, c.bestCosting.cost, true
}

// BestCost returns the best plan cost, or InfCost.
func (c *OptContext) BestCost() float64 {
	if c.best == nil {
		return InfCost
	}
	return c.bestCosting.cost
}

// MarkDone marks the context fully optimized under the given rule-set epoch.
func (c *OptContext) MarkDone(epoch int) { setBit(&c.done, epoch) }

// Done reports whether optimization of this context completed under the
// given rule-set epoch.
func (c *OptContext) Done(epoch int) bool { return hasBit(c.done, epoch) }

// ---------------------------------------------------------------------------
// Enforcer insertion (paper §4.1: "Enforcers are added to the group
// containing the group expression being optimized.")

// AddEnforcers inserts the enforcer expressions that could satisfy req into
// the group, once per distinct request. Each enforcer is a group expression
// whose single child is the group itself (cf. "6: Sort(T1.a) [0]" in
// Figure 6). The request is marked enforced only once every insert
// succeeded, so a failed call is retried in full by the next one.
func (g *Group) AddEnforcers(req props.Required) error {
	id := g.memo.InternReq(req)
	if g.enforced[id] {
		return nil
	}

	self := []GroupID{g.ID}
	var enforcers []ops.Operator
	if !req.Order.IsAny() {
		enforcers = append(enforcers, &ops.Sort{Order: req.Order})
	}
	switch req.Dist.Kind {
	case props.DistSingleton:
		enforcers = append(enforcers, &ops.Gather{})
		if !req.Order.IsAny() {
			enforcers = append(enforcers, &ops.GatherMerge{Order: req.Order})
		}
	case props.DistHashed:
		enforcers = append(enforcers, &ops.Redistribute{Cols: req.Dist.Cols})
	case props.DistReplicated:
		enforcers = append(enforcers, &ops.Broadcast{})
	case props.DistRandom:
		// Only needed when children deliver Replicated: spread one copy.
		if cols := g.Logical().OutputCols.Ordered(); len(cols) > 0 {
			enforcers = append(enforcers, &ops.Redistribute{Cols: []base.ColID{cols[0]}})
		}
	}
	if req.Rewindable {
		enforcers = append(enforcers, &ops.Spool{})
	}
	for _, e := range enforcers {
		if _, err := g.memo.InsertExpr(e, self, g.ID); err != nil {
			return err
		}
	}
	if g.enforced == nil {
		g.enforced = make(map[ReqID]bool)
	}
	g.enforced[id] = true
	return nil
}

// EnforcerUseful reports whether optimizing the enforcer expression under
// req can contribute a satisfying plan: the enforcer must deliver a property
// the request actually demands. This is also the cycle guard — an enforcer
// whose child request would equal the incoming request is never useful.
func EnforcerUseful(op ops.Operator, req props.Required) bool {
	switch o := op.(type) {
	case *ops.Sort:
		return !req.Order.IsAny() && o.Order.Satisfies(req.Order)
	case *ops.Gather:
		return req.Dist.Kind == props.DistSingleton && req.Order.IsAny()
	case *ops.GatherMerge:
		return req.Dist.Kind == props.DistSingleton && o.Order.Satisfies(req.Order)
	case *ops.Redistribute:
		if req.Dist.Kind == props.DistRandom {
			return true
		}
		if req.Dist.Kind != props.DistHashed || !req.Order.IsAny() {
			return false
		}
		d := props.Distribution{Kind: props.DistHashed, Cols: o.Cols}
		return d.Satisfies(props.Distribution{Kind: props.DistHashed, Cols: req.Dist.Cols, AllowReplicated: req.Dist.AllowReplicated})
	case *ops.Broadcast:
		return req.Dist.Kind == props.DistReplicated && req.Order.IsAny() ||
			req.Dist.Kind == props.DistHashed && req.Dist.AllowReplicated && req.Order.IsAny()
	case *ops.Spool:
		return req.Rewindable
	default:
		return false
	}
}

// ---------------------------------------------------------------------------
// Plan extraction (paper §4.1, Figure 6)

// ExtractPlan walks the linkage structure from the root group's best
// expression for the initial request down through the recorded child
// requests, building the final physical plan.
func (m *Memo) ExtractPlan(g GroupID, req props.Required) (*ops.Expr, error) {
	grp := m.Group(g)
	ctx := grp.LookupContext(req)
	if ctx == nil {
		return nil, errNoPlan(grp, req)
	}
	best, cand, ok := ctx.Best()
	if !ok {
		return nil, errNoPlan(grp, req)
	}
	children := make([]*ops.Expr, len(best.Children))
	childDerived := make([]props.Derived, len(best.Children))
	for i, cid := range best.Children {
		creq, _ := m.Req(cand.ChildReqs[i])
		c, err := m.ExtractPlan(cid, creq)
		if err != nil {
			return nil, err
		}
		children[i] = c
		childDerived[i] = *c.Phys
	}
	phys := best.Op.(ops.Physical).Derive(childDerived)
	rows := grp.Rows()
	return &ops.Expr{
		Op:       best.Op,
		Children: children,
		Phys:     &phys,
		Cost:     cand.Cost,
		Rows:     rows,
	}, nil
}

type noPlanError struct {
	group GroupID
	req   props.Required
}

func (e *noPlanError) Error() string {
	return "memo: no plan for group " + strconv.Itoa(int(e.group)) + " under " + e.req.String()
}

func errNoPlan(g *Group, req props.Required) error {
	return &noPlanError{group: g.ID, req: req}
}
