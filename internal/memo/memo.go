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
// The Memo is the structure every optimization job searches, so its hot
// paths are built to be contention-free (paper §6.2, Figure 7 — near-linear
// speedup with more cores requires the shared search structure not to
// serialize the workers; DESIGN.md §11):
//
//   - the group index is an append-only chunked array published through an
//     atomic pointer — Group(id) and NumGroups take no lock at all;
//   - duplicate detection is striped: the content-addressed subtree registry
//     is split across hash-sharded stripes with per-stripe locks, and
//     target-group dedup uses only the group's own lock;
//   - the applied-rule ledger is a bitset indexed by dense rule IDs
//     (xform's registry), so rule-firing checks hash no strings;
//   - optimization requests are interned per session to dense ReqIDs, so
//     the Figure-6 hash tables are direct int-keyed maps with no
//     Hash()/Equal() re-runs on every probe.
package memo

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

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
// Lock-free group index

const (
	groupChunkBits = 6
	groupChunkSize = 1 << groupChunkBits // groups per chunk
	groupChunkMask = groupChunkSize - 1
)

type groupChunk [groupChunkSize]*Group

// groupIndex is a consistent view of the append-only group index: a directory
// of fixed-size chunks plus the count of groups visible through this view.
// Views are immutable up to n — writers fill the new group's slot (and, on a
// chunk boundary, install a new chunk) before publishing the count that
// reveals it, so a reader holding any view can index every group below its n
// without synchronization. Only groupSnapshot/publishGroup may touch the raw
// structure (enforced by orcavet's locks analyzer).
type groupIndex struct {
	chunks []*groupChunk
	n      int
}

func (idx *groupIndex) group(id GroupID) *Group {
	return idx.chunks[id>>groupChunkBits][id&groupChunkMask]
}

// ---------------------------------------------------------------------------
// Sharded duplicate-detection registry

// numFpStripes is the stripe count of the content-addressed subtree
// registry. Power of two so the stripe pick is a mask; 64 stripes keep the
// collision probability of concurrent inserts on distinct fingerprints low
// at any realistic worker count.
const numFpStripes = 64

// fpStripe is one stripe of the registry: the fingerprint buckets whose hash
// falls on this stripe, guarded by the stripe's own lock.
type fpStripe struct {
	mu    sync.Mutex
	table map[uint64][]*GroupExpr
}

// ---------------------------------------------------------------------------
// Interned optimization requests

// ReqID is a session-dense handle for an interned props.Required. Two
// requests are Equal exactly when their ReqIDs match, so the per-group and
// per-expression hash tables (paper Figure 6) key directly off the int
// instead of re-running Hash()/Equal() per probe.
type ReqID int32

const numReqStripes = 16

type reqStripe struct {
	mu    sync.Mutex
	table map[uint64][]reqEntry
}

type reqEntry struct {
	req props.Required
	id  ReqID
}

// Memo is the plan-space structure. All methods are safe for concurrent use
// by optimization jobs. One Memo serves a whole optimization session: when
// the session runs multiple stages, later stages resume search over the same
// Memo instead of rebuilding it (group state is tracked per rule-set epoch,
// see Group).
type Memo struct {
	// groupN and chunkDir together form the lock-free group index; see
	// groupIndex. groupN is the published group count; chunkDir points at the
	// chunk directory, replaced only when it must grow (geometric doubling).
	// Publication order is slot write → chunkDir (on chunk boundaries) →
	// groupN, so a reader that observes count n through groupN finds every
	// group below n through whatever directory it loads afterwards. Accessed
	// only through groupSnapshot/Group/publishGroup.
	groupN   atomic.Int64
	chunkDir atomic.Pointer[[]*groupChunk]
	// groupPubMu serializes group creation (writers only; readers never
	// take it).
	groupPubMu sync.Mutex

	// stripes is the sharded duplicate-detection registry ("based on
	// expression topology", paper §4.1 step 1): operator parameters plus
	// child groups, keyed by fingerprint, striped by fingerprint hash.
	stripes [numFpStripes]fpStripe

	// reqStripes interns optimization requests to dense ReqIDs; reqs is the
	// reverse table (ReqID -> request), appended under reqMu by the stripe
	// that interns a new request, so its length is also the next free id.
	reqStripes [numReqStripes]reqStripe
	reqMu      sync.Mutex
	reqs       []props.Required

	// cteProducers maps a CTE id to the group holding its producer side,
	// recorded when the CTE anchor is inserted. On-demand statistics
	// derivation uses it to reach producer statistics from a consumer group
	// without walking the whole Memo from the root.
	cteMu        sync.Mutex
	cteProducers map[int]GroupID

	mem *gpos.MemoryAccountant

	root GroupID
}

// New returns an empty Memo charging the given accountant (may be nil).
func New(mem *gpos.MemoryAccountant) *Memo {
	m := &Memo{
		cteProducers: make(map[int]GroupID),
		mem:          mem,
	}
	m.chunkDir.Store(&[]*groupChunk{})
	for i := range m.stripes {
		m.stripes[i].table = make(map[uint64][]*GroupExpr)
	}
	for i := range m.reqStripes {
		m.reqStripes[i].table = make(map[uint64][]reqEntry)
	}
	return m
}

// Root returns the root group id.
func (m *Memo) Root() GroupID { return m.root }

// SetRoot marks the root group.
func (m *Memo) SetRoot(g GroupID) { m.root = g }

// groupSnapshot assembles a consistent index view: the count is loaded first,
// so the directory loaded after it covers at least that many groups. The view
// is immutable up to its n, so callers may index it freely without locks.
//
//orcavet:hotpath lock-free index view on every group probe
func (m *Memo) groupSnapshot() groupIndex {
	n := int(m.groupN.Load())
	return groupIndex{chunks: *m.chunkDir.Load(), n: n}
}

// Group returns the group with the given id. It performs no mutex
// acquisition: one atomic pointer load plus two array indexings. The id must
// have been observed through NumGroups or returned from an insert (the
// directory loaded here then covers it).
//
//orcavet:hotpath one atomic load and two indexings; every optimization job goes through here
func (m *Memo) Group(id GroupID) *Group {
	return (*m.chunkDir.Load())[id>>groupChunkBits][id&groupChunkMask]
}

// NumGroups returns the current number of groups, lock-free.
//
//orcavet:hotpath scheduler drain polls this count
func (m *Memo) NumGroups() int {
	return int(m.groupN.Load())
}

// NumExprs returns the total number of group expressions.
func (m *Memo) NumExprs() int {
	idx := m.groupSnapshot()
	n := 0
	for i := 0; i < idx.n; i++ {
		n += idx.group(GroupID(i)).NumExprs()
	}
	return n
}

// publishGroup creates a new group seeded with the given expression and
// publishes it through the lock-free index. The seed is wired in (back
// pointer and expression list) before the count store that reveals the group,
// so no reader ever observes an empty group and the fresh-insert path takes
// no group lock. Callers must hold the stripe lock that owns the seed's
// fingerprint (or otherwise guarantee no duplicate creation race);
// publishGroup itself takes only the writer-side publication lock.
//
//orcavet:hotpath:alloc group and chunk allocation is the point; it happens before the publication lock
func (m *Memo) publishGroup(seed *GroupExpr) *Group {
	// Allocate before taking the publication lock: an allocation can stall on
	// GC assist, and a stall inside the only writer-global lock would
	// serialize every concurrent group creation behind the collector.
	g := &Group{memo: m, exprs: []*GroupExpr{seed}}
	seed.group = g
	m.groupPubMu.Lock()
	defer m.groupPubMu.Unlock()
	n := int(m.groupN.Load())
	g.ID = GroupID(n)
	chunks := *m.chunkDir.Load()
	if n&groupChunkMask == 0 {
		// Last chunk full (or index empty): add a fresh chunk. When the
		// directory has spare capacity the new chunk pointer goes into the
		// shared backing array in place — prior views hold shorter slices of
		// it and never index past their own n, so the slot is invisible to
		// them until the count store below publishes it. Only when capacity
		// runs out is the directory reallocated (geometric doubling), keeping
		// publication O(1) amortized rather than O(n) per chunk fill.
		if len(chunks) == cap(chunks) {
			grown := make([]*groupChunk, len(chunks), 2*len(chunks)+1)
			copy(grown, chunks)
			chunks = grown
		}
		chunks = append(chunks, new(groupChunk))
		m.chunkDir.Store(&chunks)
	}
	// Fill the slot before the count that reveals it is published; the atomic
	// stores order the writes for readers, and readers of older counts never
	// index past their own n.
	chunks[n>>groupChunkBits][n&groupChunkMask] = g
	m.groupN.Store(int64(n + 1))
	m.mem.Charge(groupSizeBytes())
	return g
}

// Insert copies a logical expression tree into the Memo (paper Figure 4),
// creating groups bottom-up, and returns the root group id. The walk is
// iterative — an explicit frame stack instead of recursion — so deep
// left-linear join chains pay neither a Go call frame nor repeated child
// slice growth per node: each frame's child-group slice is allocated exactly
// once, when the frame is pushed.
//
//orcavet:hotpath:alloc frame stack and per-frame child slices are allocated once per node by design
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
//
// Neither namespace touches a Memo-global lock: target-group inserts hold
// only the group's lock for the probe-and-append, and registry inserts hold
// only the fingerprint's stripe lock (plus, on group creation, the
// publication lock).
//
//orcavet:hotpath:alloc the GroupExpr node itself is the one intentional allocation per insert
func (m *Memo) InsertExpr(op ops.Operator, children []GroupID, target GroupID) (*GroupExpr, error) {
	if err := fault.Inject(fault.PointMemoInsert); err != nil {
		return nil, err
	}
	fp := fingerprint(op, children)

	if a, ok := op.(*ops.CTEAnchor); ok && len(children) > 0 {
		m.cteMu.Lock()
		if _, seen := m.cteProducers[a.ID]; !seen {
			m.cteProducers[a.ID] = children[0]
		}
		m.cteMu.Unlock()
	}

	if target >= 0 {
		grp := m.Group(target)
		grp.mu.Lock()
		for _, ge := range grp.exprs {
			if ge.fp == fp && ge.matches(op, children) {
				grp.mu.Unlock()
				return ge, nil
			}
		}
		ge := &GroupExpr{Op: op, Children: children, group: grp, fp: fp}
		grp.exprs = append(grp.exprs, ge)
		grp.mu.Unlock()
		m.mem.Charge(exprSizeBytes(len(children)))
		return ge, nil
	}

	s := &m.stripes[fp&(numFpStripes-1)]
	s.mu.Lock()
	for _, ge := range s.table[fp] {
		if ge.matches(op, children) {
			s.mu.Unlock()
			return ge, nil
		}
	}
	// Holding the stripe lock across group creation keeps probe+create
	// atomic per fingerprint: a concurrent insert of the same subtree blocks
	// on this stripe and then finds the registered expression. publishGroup
	// wires the seed expression in before revealing the group, so no group
	// lock is taken and no reader sees an empty group.
	ge := &GroupExpr{Op: op, Children: children, fp: fp}
	m.publishGroup(ge)
	s.table[fp] = append(s.table[fp], ge)
	s.mu.Unlock()
	m.mem.Charge(exprSizeBytes(len(children)))
	return ge, nil
}

// CTEProducer returns the group holding the producer side of the CTE with
// the given id, recorded when its anchor was inserted.
func (m *Memo) CTEProducer(id int) (GroupID, bool) {
	m.cteMu.Lock()
	defer m.cteMu.Unlock()
	g, ok := m.cteProducers[id]
	return g, ok
}

// InternReq returns the session-dense id of an optimization request,
// interning it on first use. Interned handles make every later probe of the
// Figure-6 hash tables a direct int-keyed map access.
//
//orcavet:hotpath request-stripe probe on every candidate record
func (m *Memo) InternReq(req props.Required) ReqID {
	h := req.Hash()
	s := &m.reqStripes[h&(numReqStripes-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.table[h] {
		if e.req.Equal(req) {
			return e.id
		}
	}
	m.reqMu.Lock()
	id := ReqID(len(m.reqs))
	m.reqs = append(m.reqs, req)
	m.reqMu.Unlock()
	s.table[h] = append(s.table[h], reqEntry{req: req, id: id})
	return id
}

// Req returns the request interned under id; ok is false for an id this Memo
// never handed out (and on a nil Memo, so diagnostics can call it blindly).
//
//orcavet:hotpath:lock one reverse-table read per materialised Opt job
func (m *Memo) Req(id ReqID) (req props.Required, ok bool) {
	if m == nil {
		return props.Required{}, false
	}
	m.reqMu.Lock()
	defer m.reqMu.Unlock()
	if id < 0 || int(id) >= len(m.reqs) {
		return props.Required{}, false
	}
	return m.reqs[id], true
}

// LookupReq returns the interned id of a request without interning it;
// ok is false when the request was never seen by this session (and therefore
// cannot appear in any table).
//
//orcavet:hotpath request-stripe probe on every property-table access
func (m *Memo) LookupReq(req props.Required) (ReqID, bool) {
	h := req.Hash()
	s := &m.reqStripes[h&(numReqStripes-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.table[h] {
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
	idx := m.groupSnapshot()
	var b strings.Builder
	for i := 0; i < idx.n; i++ {
		g := idx.group(GroupID(i))
		g.mu.Lock()
		fmt.Fprintf(&b, "GROUP %d", g.ID)
		if g.stats != nil {
			fmt.Fprintf(&b, " (rows=%.0f)", g.stats.Rows)
		}
		b.WriteString(":\n")
		for i, ge := range g.exprs {
			fmt.Fprintf(&b, "  %d: %s %v\n", i, ops.Describe(ge.Op), ge.Children)
		}
		g.mu.Unlock()
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
	ID   GroupID
	memo *Memo

	mu    sync.Mutex
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
//
//orcavet:hotpath:alloc,lock the caller's buffer grows to the largest group once; the group lock guards the copy
func (g *Group) AppendExprs(buf []*GroupExpr) []*GroupExpr {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append(buf, g.exprs...)
}

// NumExprs returns the current expression count.
func (g *Group) NumExprs() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.exprs)
}

// Expr returns the i-th expression.
func (g *Group) Expr(i int) *GroupExpr {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.exprs[i]
}

// Explored reports whether exploration finished for this group under the
// given rule-set epoch.
//
//orcavet:hotpath:lock the group's own lock, once per Exp(g) step
func (g *Group) Explored(epoch int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.explored[epoch]
}

// SetExplored marks exploration complete for the given rule-set epoch.
//
//orcavet:hotpath:alloc,lock the epoch table is allocated once per group
func (g *Group) SetExplored(epoch int) {
	g.mu.Lock()
	if g.explored == nil {
		g.explored = make(map[int]bool)
	}
	g.explored[epoch] = true
	g.mu.Unlock()
}

// Implemented reports whether implementation finished for this group under
// the given rule-set epoch.
//
//orcavet:hotpath:lock the group's own lock, once per Imp(g) step
func (g *Group) Implemented(epoch int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.impl[epoch]
}

// SetImplemented marks implementation complete for the given rule-set epoch.
//
//orcavet:hotpath:alloc,lock the epoch table is allocated once per group
func (g *Group) SetImplemented(epoch int) {
	g.mu.Lock()
	if g.impl == nil {
		g.impl = make(map[int]bool)
	}
	g.impl[epoch] = true
	g.mu.Unlock()
}

// Logical returns the group's logical properties, deriving them on first use
// from the first logical expression.
func (g *Group) Logical() *props.Logical {
	g.mu.Lock()
	if g.logical != nil {
		defer g.mu.Unlock()
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
	g.mu.Unlock()

	lp := props.NewLogical()
	if first != nil {
		childOuts := make([]base.ColSet, len(first.Children))
		for i, cid := range first.Children {
			childOuts[i] = g.memo.Group(cid).Logical().OutputCols
		}
		lp.OutputCols = ops.OutputColsOp(first.Op, childOuts)
	}
	g.mu.Lock()
	if g.logical == nil {
		g.logical = lp
	}
	out := g.logical
	g.mu.Unlock()
	return out
}

// Stats returns the group's statistics object (nil before derivation).
//
//orcavet:hotpath:lock the group's own lock, once per Stats(g) step
func (g *Group) Stats() *stats.Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// SetStats attaches a statistics object to the group (paper Figure 5d).
func (g *Group) SetStats(s *stats.Stats) {
	g.mu.Lock()
	if g.stats == nil {
		g.stats = s
		g.memo.mem.Charge(s.SizeBytes())
	}
	g.mu.Unlock()
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
// hash table maps incoming optimization requests to the child requests of
// the best plan alternative — the linkage structure used for plan extraction
// (paper Figure 6) and for TAQO's uniform plan sampling.
type GroupExpr struct {
	Op       ops.Operator
	Children []GroupID

	group *Group
	fp    uint64

	mu sync.Mutex
	// local is the Figure-6 local hash table, keyed by interned request id:
	// the alternatives costed for the request (also TAQO's sampling space).
	// Allocated on first candidate (most expressions are never costed).
	local map[ReqID][]Candidate
	// childReqs caches the child-request alternatives of a request-invariant
	// physical operator (see ChildReqs); immutable once published.
	childReqs atomic.Pointer[reqAlts]
	// applied is the rule ledger: a bitset indexed by dense rule ID
	// (xform.RuleIDFor), grown on demand. No strings are hashed on the
	// rule-firing check path.
	applied []uint64
}

// Candidate is one costed way of satisfying a request with this expression.
type Candidate struct {
	ChildReqs []props.Required
	LocalCost float64
	Cost      float64 // subtree total
	Delivered props.Derived
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
//
//orcavet:hotpath:lock ledger check on every rule application; the per-expression mutex is the design
func (ge *GroupExpr) MarkApplied(rule int) bool {
	w, bit := rule>>6, uint64(1)<<(rule&63)
	ge.mu.Lock()
	defer ge.mu.Unlock()
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
//
//orcavet:hotpath:lock ledger probe on every rule-scheduling decision
func (ge *GroupExpr) Applied(rule int) bool {
	w, bit := rule>>6, uint64(1)<<(rule&63)
	ge.mu.Lock()
	defer ge.mu.Unlock()
	return w < len(ge.applied) && ge.applied[w]&bit != 0
}

// AddCandidate records a costed alternative for the interned request in the
// local hash table. Re-costing the same alternative (same child requests) in
// a later optimization pass replaces the earlier entry rather than appending
// a duplicate, so the candidate list stays one entry per distinct alternative.
//
//orcavet:hotpath:alloc,lock the candidate list grows once per distinct alternative, under the expression's own lock
func (ge *GroupExpr) AddCandidate(id ReqID, c Candidate) {
	ge.mu.Lock()
	defer ge.mu.Unlock()
	if ge.local == nil {
		ge.local = make(map[ReqID][]Candidate)
	}
	l := ge.local[id]
	for i := range l {
		if sameChildReqs(l[i].ChildReqs, c.ChildReqs) {
			l[i] = c
			return
		}
	}
	ge.local[id] = append(l, c)
	ge.group.memo.mem.Charge(candidateSizeBytes(len(c.ChildReqs)))
}

// reqAlts is a physical operator's child-request alternatives together with
// their interned ids (alternative-major, one id per child).
type reqAlts struct {
	alts [][]props.Required
	ids  []ReqID
}

// ChildReqs returns the child-request alternatives of the expression's
// physical operator under req, and the interned id of every request in them:
// ids[a*len(ge.Children)+c] is child c's request in alternative a. For a
// request-invariant operator both are computed once per expression and
// shared by every request that costs it, so callers must not modify them;
// otherwise the ids are appended to buf[:0], the caller's scratch.
//
//orcavet:hotpath:alloc the shared id slice of a request-invariant operator is allocated once per expression
func (ge *GroupExpr) ChildReqs(req props.Required, buf []ReqID) (alts [][]props.Required, ids []ReqID) {
	phys := ge.Op.(ops.Physical)
	_, invariant := phys.(ops.RequestInvariant)
	if invariant {
		if c := ge.childReqs.Load(); c != nil {
			return c.alts, c.ids
		}
	}
	alts = phys.ChildReqs(req)
	ids = buf[:0]
	if invariant {
		ids = make([]ReqID, 0, len(alts)*len(ge.Children))
	}
	for _, alt := range alts {
		for _, creq := range alt {
			ids = append(ids, ge.group.memo.InternReq(creq))
		}
	}
	if invariant {
		// Racing jobs compute equal values; whichever lands first is kept.
		ge.childReqs.CompareAndSwap(nil, &reqAlts{alts: alts, ids: ids})
	}
	return alts, ids
}

func sameChildReqs(a, b []props.Required) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Candidates returns the costed alternatives recorded for a request.
func (ge *GroupExpr) Candidates(req props.Required) []Candidate {
	id, ok := ge.group.memo.LookupReq(req)
	if !ok {
		return nil
	}
	ge.mu.Lock()
	defer ge.mu.Unlock()
	return append([]Candidate(nil), ge.local[id]...)
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
