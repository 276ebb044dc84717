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
// ints with no Hash()/Equal() re-runs on every probe.
package memo

import (
	"fmt"
	"slices"
	"strings"
	"unsafe"

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
// Interned optimization requests

// ReqID is a session-dense handle for an interned props.Required. Two
// requests are Equal exactly when their ReqIDs match, so the per-group and
// per-expression hash tables (paper Figure 6) key directly off the int
// instead of re-running Hash()/Equal() per probe.
type ReqID int32

type reqEntry struct {
	req props.Required
	id  ReqID
}

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

	// reqTable interns optimization requests to dense ReqIDs, keyed by
	// request hash; reqs is the reverse table (ReqID -> request), so its
	// length is also the next free id.
	reqTable map[uint64][]reqEntry
	reqs     []props.Required

	// cteProducers maps a CTE id to the group holding its producer side,
	// recorded when the CTE anchor is inserted. On-demand statistics
	// derivation uses it to reach producer statistics from a consumer group
	// without walking the whole Memo from the root.
	cteProducers map[int]GroupID

	// entries and ids are the unused tails of the arena chunks the local
	// tables take their entries and candidates' child-request ids from.
	entries []localEntry
	ids     []ReqID

	mem *gpos.MemoryAccountant

	root GroupID
}

// carve copies xs to the unused tail of an arena chunk, starting a new 8 KB
// chunk when the tail is too short.
func carve[T any](tail *[]T, xs ...T) []T {
	if cap(*tail)-len(*tail) < len(xs) {
		*tail = make([]T, 0, max(8<<10/int(unsafe.Sizeof(xs[0])), len(xs)))
	}
	*tail = append(*tail, xs...)
	return (*tail)[len(*tail)-len(xs) : len(*tail) : len(*tail)]
}

// New returns an empty Memo charging the given accountant (may be nil).
func New(mem *gpos.MemoryAccountant) *Memo {
	return &Memo{
		registry:     make(map[uint64][]*GroupExpr),
		reqTable:     make(map[uint64][]reqEntry),
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
func (m *Memo) InternReq(req props.Required) ReqID {
	h := req.Hash()
	for _, e := range m.reqTable[h] {
		if e.req.Equal(req) {
			return e.id
		}
	}
	id := ReqID(len(m.reqs))
	m.reqs = append(m.reqs, req)
	m.reqTable[h] = append(m.reqTable[h], reqEntry{req: req, id: id})
	return id
}

// Req returns the request interned under id; ok is false for an id this Memo
// never handed out (and on a nil Memo, so diagnostics can call it blindly).
func (m *Memo) Req(id ReqID) (req props.Required, ok bool) {
	if m == nil {
		return props.Required{}, false
	}
	if id < 0 || int(id) >= len(m.reqs) {
		return props.Required{}, false
	}
	return m.reqs[id], true
}

// LookupReq returns the interned id of a request without interning it;
// ok is false when the request was never seen by this session (and therefore
// cannot appear in any table).
func (m *Memo) LookupReq(req props.Required) (ReqID, bool) {
	for _, e := range m.reqTable[req.Hash()] {
		if e.req.Equal(req) {
			return e.id, true
		}
	}
	return 0, false
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
	explored map[int]bool // rule-set epochs whose exploration completed
	impl     map[int]bool // rule-set epochs whose implementation completed
	enforced map[ReqID]bool
	ctxs     map[ReqID]*OptContext
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
func (g *Group) Explored(epoch int) bool { return g.explored[epoch] }

// SetExplored marks exploration complete for the given rule-set epoch.
func (g *Group) SetExplored(epoch int) {
	if g.explored == nil {
		g.explored = make(map[int]bool)
	}
	g.explored[epoch] = true
}

// Implemented reports whether implementation finished for this group under
// the given rule-set epoch.
func (g *Group) Implemented(epoch int) bool { return g.impl[epoch] }

// SetImplemented marks implementation complete for the given rule-set epoch.
func (g *Group) SetImplemented(epoch int) {
	if g.impl == nil {
		g.impl = make(map[int]bool)
	}
	g.impl[epoch] = true
}

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
// for it, with the child requests of each — the linkage structure used for
// plan extraction (paper Figure 6) and TAQO's uniform plan sampling space.
type GroupExpr struct {
	Op       ops.Operator
	Children []GroupID

	group *Group
	fp    uint64

	// local is the Figure-6 local table: one chain, over all requests, of
	// the alternatives costed for each, in the order they were first
	// recorded. Most expressions are never costed.
	local *localEntry
	// childReqs caches the interned child requests of a request-invariant
	// physical operator (see ChildReqs); immutable once set. A pointer keeps
	// GroupExpr at the size memo/sizes.go prices.
	childReqs *[]ReqID
	// applied is the rule ledger: a bitset indexed by dense rule ID
	// (xform.RuleIDFor), grown on demand. No strings are hashed on the
	// rule-firing check path.
	applied []uint64
}

// Candidate is one costed way of satisfying a request with this expression.
type Candidate struct {
	ChildReqs []ReqID // each child's interned request (see Memo.Req)
	LocalCost float64
	Cost      float64 // subtree total
	Delivered props.Derived
}

// localEntry is one entry of an expression's local table: a candidate
// costed for the interned request req, and the chain's next entry.
type localEntry struct {
	req  ReqID
	next *localEntry
	cand Candidate
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
func (ge *GroupExpr) MarkApplied(rule int) bool {
	w, bit := rule>>6, uint64(1)<<(rule&63)
	for len(ge.applied) <= w {
		ge.applied = append(ge.applied, 0)
	}
	if ge.applied[w]&bit != 0 {
		return false
	}
	ge.applied[w] |= bit
	return true
}

// Applied reports whether the rule with the given dense id already ran on
// this expression. The ledger spans rule-set epochs, so a stage resuming
// search over a shared Memo skips transformations an earlier stage
// performed.
func (ge *GroupExpr) Applied(rule int) bool {
	w, bit := rule>>6, uint64(1)<<(rule&63)
	return w < len(ge.applied) && ge.applied[w]&bit != 0
}

// AddCandidate records a costed alternative for the interned request in the
// local table and returns it as recorded: its child ids are then the Memo's
// own, never the caller's memory. Re-costing the same alternative (same
// child requests) in a later optimization pass replaces the earlier entry in
// place rather than appending a duplicate, so the table stays one entry per
// distinct alternative, in the order each was first costed.
func (ge *GroupExpr) AddCandidate(id ReqID, c Candidate) Candidate {
	p := &ge.local
	for ; *p != nil; p = &(*p).next {
		if e := *p; e.req == id && slices.Equal(e.cand.ChildReqs, c.ChildReqs) {
			c.ChildReqs = e.cand.ChildReqs
			e.cand = c
			return c
		}
	}
	m := ge.group.memo
	c.ChildReqs = carve(&m.ids, c.ChildReqs...)
	*p = &carve(&m.entries, localEntry{req: id, cand: c})[0]
	m.mem.Charge(candidateSizeBytes(len(c.ChildReqs)))
	return c
}

// ChildReqs interns the child requests of every alternative the
// expression's physical operator offers under req. It returns their ids,
// alternative-major — ids[a*len(ge.Children)+c] is child c's request in
// alternative a — and the number of alternatives. For a request-invariant
// operator the ids are interned once per expression and shared by every
// request that costs it, so callers must not modify them; otherwise they are
// appended to ids[:0]. reqs is the caller's scratch for the operator's
// requests, left grown for the next call.
func (ge *GroupExpr) ChildReqs(req props.Required, ids []ReqID, reqs *[]props.Required) ([]ReqID, int) {
	if ge.childReqs != nil {
		ids = *ge.childReqs
	} else {
		phys := ge.Op.(ops.Physical)
		*reqs = phys.AppendChildReqs(req, (*reqs)[:0])
		ids = ids[:0]
		for _, r := range *reqs {
			ids = append(ids, ge.group.memo.InternReq(r))
		}
		if _, invariant := phys.(ops.RequestInvariant); invariant {
			cached := carve(&ge.group.memo.ids, ids...)
			ge.childReqs, ids = &cached, cached
		}
	}
	if len(ge.Children) == 0 {
		return ids, 1
	}
	return ids, len(ids) / len(ge.Children)
}

// Candidates returns the costed alternatives recorded for an interned
// request, in the order they were first costed, which TAQO's unranking
// depends on.
func (ge *GroupExpr) Candidates(id ReqID) []Candidate {
	var out []Candidate
	for e := ge.local; e != nil; e = e.next {
		if e.req == id {
			out = append(out, e.cand)
		}
	}
	return out
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
