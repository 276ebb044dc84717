// Package memo implements the Memo (paper §3): the compact in-memory
// encoding of the plan space. Groups contain logically equivalent
// expressions; group expressions are operators whose children are groups.
// The package also holds the optimization machinery attached to the Memo in
// the paper's Figure 6: per-group hash tables mapping optimization requests
// to best group expressions, per-group-expression local hash tables mapping
// incoming requests to child requests (the linkage structure), enforcer
// insertion, statistics derivation over the compact structure, and final
// plan extraction.
//
// A Memo is owned by one goroutine: the search that builds it (DESIGN.md
// §11). Its hot paths hash no strings: the applied-rule ledger is a bitset
// indexed by dense rule IDs (xform's registry), and optimization requests
// are interned per session to dense ReqIDs, so the Figure-6 tables key off
// ints with no Hash()/Equal() re-runs on every probe. Delivered properties
// are interned the same way, to DerivedIDs, which lets the local tables —
// the largest structure a search builds — hold no pointer at all: their
// entries and child ids live in fixed-size chunks the collector never scans
// (local.go). The memory accountant prices the Memo from a fixed table
// (sizes.go), not from the current layouts.
package memo

import (
	"fmt"
	"strings"

	"orca/internal/base"
	"orca/internal/fault"
	"orca/internal/gpos"
	"orca/internal/ops"
	"orca/internal/props"
	"orca/internal/stats"
)

// GroupID identifies a Memo group.
type GroupID int32

// ---------------------------------------------------------------------------
// Interned properties

// ReqID is a session-dense handle for an interned props.Required. Two
// requests are Equal exactly when their ReqIDs match, so the per-group and
// per-expression hash tables (paper Figure 6) key directly off the int
// instead of re-running Hash()/Equal() per probe.
type ReqID int32

// DerivedID is a session-dense handle for an interned props.Derived: the
// properties a costed plan delivers, as the local table records them.
type DerivedID int32

// Memo is the plan-space structure. One Memo serves a whole optimization
// session: when the session runs multiple stages, later stages resume search
// over the same Memo instead of rebuilding it (group state is tracked per
// rule-set epoch, see Group).
type Memo struct {
	groups []*Group

	// registry is the duplicate-detection table ("based on expression
	// topology", paper §4.1 step 1): operator parameters plus child groups,
	// keyed by fingerprint.
	registry map[uint64][]*GroupExpr

	// reqs interns optimization requests to ReqIDs; delivered interns the
	// properties costed plans deliver to DerivedIDs.
	reqs      props.Interner[props.Required]
	delivered props.Interner[props.Derived]

	// cteProducers maps a CTE id to the group holding its producer side,
	// recorded when the CTE anchor is inserted. On-demand statistics
	// derivation uses it to reach producer statistics from a consumer group
	// without walking the whole Memo from the root.
	cteProducers map[int]GroupID

	// entries and ids are the fixed-size chunks every local table takes
	// its entries and child-request ids from (see local.go); nEntries and
	// nIDs are the next free slot of each.
	entries  []*[entryChunk]localEntry
	ids      []*[idChunk]ReqID
	nEntries int32
	nIDs     int32
	// reqOnly locates, per request-only operator kind (ops.RequestOnly) and
	// by request id, the interned child requests every expression of that
	// kind asks under the request (see ChildReqs).
	reqOnly [ops.NumRequestOnlyKinds][]idSpan

	mem *gpos.MemoryAccountant

	root GroupID
}

// New returns an empty Memo charging the given accountant (may be nil).
func New(mem *gpos.MemoryAccountant) *Memo {
	return &Memo{
		registry:     make(map[uint64][]*GroupExpr),
		cteProducers: make(map[int]GroupID),
		mem:          mem,
	}
}

// Root returns the root group id.
func (m *Memo) Root() GroupID { return m.root }

// SetRoot marks the root group.
func (m *Memo) SetRoot(g GroupID) { m.root = g }

// Group returns the group with the given id.
func (m *Memo) Group(id GroupID) *Group { return m.groups[id] }

// NumGroups returns the current number of groups.
func (m *Memo) NumGroups() int { return len(m.groups) }

// NumExprs returns the total number of group expressions.
func (m *Memo) NumExprs() int {
	n := 0
	for _, g := range m.groups {
		n += len(g.exprs)
	}
	return n
}

// newGroup creates a new group seeded with the given expression.
func (m *Memo) newGroup(seed *GroupExpr) *Group {
	g := &Group{ID: GroupID(len(m.groups)), memo: m, exprs: []*GroupExpr{seed}}
	seed.group = g
	m.groups = append(m.groups, g)
	m.mem.Charge(groupSizeBytes())
	return g
}

// Insert copies a logical expression tree into the Memo (paper Figure 4),
// creating groups bottom-up, and returns the root group id. The walk is
// iterative — an explicit frame stack instead of recursion — so deep
// left-linear join chains pay neither a Go call frame nor repeated child
// slice growth per node: each frame's child-group slice is allocated exactly
// once, when the frame is pushed.
func (m *Memo) Insert(e *ops.Expr) (GroupID, error) {
	type frame struct {
		e        *ops.Expr
		children []GroupID // one slot per child, filled as frames complete
		next     int       // next child to descend into
	}
	newFrame := func(e *ops.Expr) frame {
		f := frame{e: e}
		if n := len(e.Children); n > 0 {
			f.children = make([]GroupID, n)
		}
		return f
	}
	stack := make([]frame, 1, 32)
	stack[0] = newFrame(e)
	var result GroupID
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.e.Children) {
			f.next++
			stack = append(stack, newFrame(f.e.Children[f.next-1]))
			continue
		}
		ge, err := m.InsertExpr(f.e.Op, f.children, -1)
		if err != nil {
			return 0, err
		}
		stack = stack[:len(stack)-1]
		if len(stack) == 0 {
			result = ge.group.ID
		} else {
			parent := &stack[len(stack)-1]
			parent.children[parent.next-1] = ge.group.ID
		}
	}
	return result, nil
}

// InsertExpr adds one group expression with the given children. If target is
// a valid group id, the expression is added to that group (a transformation
// result), deduplicated against the group's existing expressions — the
// Memo's topology-based duplicate detection (§4.1 step 1). Otherwise the
// expression denotes a fresh sub-goal: the content-addressed subtree
// registry either returns the existing group holding that expression or
// creates a new one.
//
// Keeping the two namespaces separate makes the explored plan space a pure
// function of the rule set (independent of job scheduling order): rule
// results always land in their target group, and subtree groups are keyed by
// content alone. Full cross-group merging is out of scope (DESIGN.md §5).
func (m *Memo) InsertExpr(op ops.Operator, children []GroupID, target GroupID) (*GroupExpr, error) {
	if err := fault.Inject(fault.PointMemoInsert); err != nil {
		return nil, err
	}
	fp := fingerprint(op, children)

	if a, ok := op.(*ops.CTEAnchor); ok && len(children) > 0 {
		if _, seen := m.cteProducers[a.ID]; !seen {
			m.cteProducers[a.ID] = children[0]
		}
	}

	if target >= 0 {
		grp := m.Group(target)
		for _, ge := range grp.exprs {
			if ge.fp == fp && ge.matches(op, children) {
				return ge, nil
			}
		}
		ge := &GroupExpr{Op: op, Children: children, group: grp, fp: fp}
		grp.exprs = append(grp.exprs, ge)
		m.mem.Charge(exprSizeBytes(len(children)))
		return ge, nil
	}

	for _, ge := range m.registry[fp] {
		if ge.matches(op, children) {
			return ge, nil
		}
	}
	ge := &GroupExpr{Op: op, Children: children, fp: fp}
	m.newGroup(ge)
	m.registry[fp] = append(m.registry[fp], ge)
	m.mem.Charge(exprSizeBytes(len(children)))
	return ge, nil
}

// CTEProducer returns the group holding the producer side of the CTE with
// the given id, recorded when its anchor was inserted.
func (m *Memo) CTEProducer(id int) (GroupID, bool) {
	g, ok := m.cteProducers[id]
	return g, ok
}

// InternReq returns the session-dense id of an optimization request,
// interning it on first use. Interned handles make every later probe of the
// Figure-6 hash tables a direct int-keyed map access.
func (m *Memo) InternReq(req props.Required) ReqID { return ReqID(m.reqs.Intern(req)) }

// Req returns the request interned under id; ok is false for an id this Memo
// never handed out (and on a nil Memo, so diagnostics can call it blindly).
func (m *Memo) Req(id ReqID) (req props.Required, ok bool) {
	if m == nil {
		return props.Required{}, false
	}
	return m.reqs.Value(int32(id))
}

// LookupReq returns the interned id of a request without interning it;
// ok is false when the request was never seen by this session (and therefore
// cannot appear in any table).
func (m *Memo) LookupReq(req props.Required) (ReqID, bool) {
	id, ok := m.reqs.Lookup(req)
	return ReqID(id), ok
}

// InternDerived returns the session-dense id of delivered properties,
// interning them on first use, as InternReq does for requests.
func (m *Memo) InternDerived(d props.Derived) DerivedID { return DerivedID(m.delivered.Intern(d)) }

// Derived returns the delivered properties interned under id; ok is false
// for an id this Memo never handed out.
func (m *Memo) Derived(id DerivedID) (d props.Derived, ok bool) {
	return m.delivered.Value(int32(id))
}

func fingerprint(op ops.Operator, children []GroupID) uint64 {
	const prime = 1099511628211
	h := op.ParamHash()
	for _, c := range children {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// String renders the Memo's groups and expressions for debugging and for
// the optimizer's trace facility.
func (m *Memo) String() string {
	var b strings.Builder
	for _, g := range m.groups {
		fmt.Fprintf(&b, "GROUP %d", g.ID)
		if g.stats != nil {
			fmt.Fprintf(&b, " (rows=%.0f)", g.stats.Rows)
		}
		b.WriteString(":\n")
		for i, ge := range g.exprs {
			fmt.Fprintf(&b, "  %d: %s %v\n", i, ops.Describe(ge.Op), ge.Children)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Group

// Group is a container of logically equivalent expressions capturing one
// sub-goal of the query (paper §3).
//
// Exploration and implementation completion are tracked per rule-set epoch
// rather than as one-shot booleans: each optimization stage activates a rule
// set (xform.Context.SetRuleSet) and stages with identical rule sets share
// an epoch. A later stage with a different rule set therefore resumes search
// over the same Memo — groups re-enter exploration/implementation under the
// new epoch, and the per-expression applied-rule ledger confines the work to
// rules that have not fired yet.
type Group struct {
	ID    GroupID
	memo  *Memo
	exprs []*GroupExpr

	logical  *props.Logical
	stats    *stats.Stats
	explored []uint64 // bitset of rule-set epochs whose exploration completed
	impl     []uint64 // bitset of rule-set epochs whose implementation completed
	enforced map[ReqID]bool
	ctxs     []*OptContext // in creation order
}

// Memo returns the Memo the group belongs to.
func (g *Group) Memo() *Memo { return g.memo }

// Exprs returns a snapshot of the group's expressions.
func (g *Group) Exprs() []*GroupExpr { return g.AppendExprs(nil) }

// AppendExprs appends a snapshot of the group's expressions to buf: the
// allocation-free form of Exprs for callers that own a reusable buffer.
func (g *Group) AppendExprs(buf []*GroupExpr) []*GroupExpr {
	return append(buf, g.exprs...)
}

// NumExprs returns the current expression count.
func (g *Group) NumExprs() int { return len(g.exprs) }

// Expr returns the i-th expression.
func (g *Group) Expr(i int) *GroupExpr { return g.exprs[i] }

// Explored reports whether exploration finished for this group under the
// given rule-set epoch.
func (g *Group) Explored(epoch int) bool { return hasBit(g.explored, epoch) }

// SetExplored marks exploration complete for the given rule-set epoch.
func (g *Group) SetExplored(epoch int) { setBit(&g.explored, epoch) }

// Implemented reports whether implementation finished for this group under
// the given rule-set epoch.
func (g *Group) Implemented(epoch int) bool { return hasBit(g.impl, epoch) }

// SetImplemented marks implementation complete for the given rule-set epoch.
func (g *Group) SetImplemented(epoch int) { setBit(&g.impl, epoch) }

// Logical returns the group's logical properties, deriving them on first use
// from the first logical expression.
func (g *Group) Logical() *props.Logical {
	if g.logical != nil {
		return g.logical
	}
	var first *GroupExpr
	for _, ge := range g.exprs {
		if _, ok := ge.Op.(ops.Logical); ok {
			first = ge
			break
		}
	}
	if first == nil && len(g.exprs) > 0 {
		first = g.exprs[0]
	}
	lp := props.NewLogical()
	if first != nil {
		childOuts := make([]base.ColSet, len(first.Children))
		for i, cid := range first.Children {
			childOuts[i] = g.memo.Group(cid).Logical().OutputCols
		}
		lp.OutputCols = ops.OutputColsOp(first.Op, childOuts)
	}
	g.logical = lp
	return lp
}

// Stats returns the group's statistics object (nil before derivation).
func (g *Group) Stats() *stats.Stats { return g.stats }

// SetStats attaches a statistics object to the group (paper Figure 5d).
func (g *Group) SetStats(s *stats.Stats) {
	if g.stats == nil {
		g.stats = s
		g.memo.mem.Charge(s.SizeBytes())
	}
}

// Rows returns the group's estimated cardinality (0 before derivation).
func (g *Group) Rows() float64 {
	if s := g.Stats(); s != nil {
		return s.Rows
	}
	return 0
}

// ---------------------------------------------------------------------------
// GroupExpr

// GroupExpr is an operator whose children are groups (paper §3). Its local
// table maps each incoming optimization request to every alternative costed
// for it, with the child requests, costs and delivered properties of each —
// the linkage structure used for plan extraction (paper Figure 6) and TAQO's
// uniform plan sampling space. The table's entries are not the expression's:
// it holds the index of its first one in the Memo's pointer-free chunks.
type GroupExpr struct {
	Op       ops.Operator
	Children []GroupID

	group *Group
	fp    uint64

	// local is the Figure-6 local table: the index of the first entry of
	// one chain, over all requests, of the alternatives costed for each, in
	// the order they were first recorded; 0 when none is (most expressions
	// are never costed), and tail the index of its last. The entries live in
	// the Memo's pointer-free chunks (local.go), so the collector never
	// scans them.
	local, tail int32
	// invOff and invN locate, in the Memo's id chunks, the interned child
	// requests of a request-invariant physical operator (see ChildReqs);
	// invN is 0 until they are interned, and they are immutable after.
	invOff, invN int32
	// applied is the rule ledger: a bitset indexed by dense rule ID
	// (xform.RuleIDFor), grown on demand. No strings are hashed on the
	// rule-firing check path.
	applied []uint64
}

// Group returns the owning group.
func (ge *GroupExpr) Group() *Group { return ge.group }

func (ge *GroupExpr) matches(op ops.Operator, children []GroupID) bool {
	if len(ge.Children) != len(children) || !ge.Op.ParamEqual(op) {
		return false
	}
	for i := range children {
		if ge.Children[i] != children[i] {
			return false
		}
	}
	return true
}

// MarkApplied records that the rule with the given dense id (assigned by
// xform's registry) ran on this expression; it returns false if the rule had
// already been applied (rules fire once per expression).
func (ge *GroupExpr) MarkApplied(rule int) bool { return setBit(&ge.applied, rule) }

// Applied reports whether the rule with the given dense id already ran on
// this expression. The ledger spans rule-set epochs, so a stage resuming
// search over a shared Memo skips transformations an earlier stage
// performed.
func (ge *GroupExpr) Applied(rule int) bool { return hasBit(ge.applied, rule) }

// setBit sets bit i of the bitset *b, growing it on demand, and reports
// whether the bit was clear.
func setBit(b *[]uint64, i int) bool {
	w, bit := i>>6, uint64(1)<<(i&63)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	if (*b)[w]&bit != 0 {
		return false
	}
	(*b)[w] |= bit
	return true
}

// hasBit reports whether bit i of the bitset b is set.
func hasBit(b []uint64, i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(uint64(1)<<(i&63)) != 0
}

// IsEnforcer reports whether the expression is an enforcer operator.
func (ge *GroupExpr) IsEnforcer() bool {
	_, ok := ge.Op.(ops.Enforcer)
	return ok
}

// String renders "Op [c1 c2]".
func (ge *GroupExpr) String() string {
	return fmt.Sprintf("%s %v", ops.Describe(ge.Op), ge.Children)
}
