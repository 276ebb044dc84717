package memo

import (
	"slices"

	"orca/internal/ops"
	"orca/internal/props"
)

// The Figure-6 local tables of all of a Memo's expressions share three kinds
// of fixed-size chunk: entries, one per (request, alternative) recorded;
// costings, one per (expression, child-request tuple) a scheduler run
// costed; and the alternatives' interned child-request ids. No element type
// holds a pointer, so the collector allocates the chunks in spans it never
// scans, however large the plan space grows. Chunks are never regrown: a
// growable slice would copy the table at every doubling and keep the old
// copy until the next cycle.
const (
	entryChunk   = 256  // localEntry per chunk (4 KB)
	costingChunk = 256  // costing per chunk (8 KB)
	idChunk      = 1024 // ReqID per chunk (4 KB); the most child ids one candidate may have
)

// Candidate is one costed way of satisfying a request with an expression:
// a read-only view of its local-table entry, built on access.
type Candidate struct {
	ChildReqs []ReqID // each child's interned request (see Memo.Req)
	LocalCost float64
	Cost      float64 // subtree total
	Delivered props.Derived

	entry int32 // the local-table entry viewed; 0 for a hand-built candidate
}

// localEntry is one entry of an expression's local table: alternative alt
// of the expression's child requests, recorded for the interned request
// req, the costing that gives its plan, and the index of the chain's next
// entry (0 ends it). Many requests ask an expression for the same child
// requests; their entries share one costing.
type localEntry struct {
	req     ReqID
	next    int32
	alt     int32
	costing CostingID
}

// CostingID identifies a costing in the Memo's chunks; 0 is none.
type CostingID int32

// noPlan is the delivery of a costing one of whose children has no plan.
const noPlan DerivedID = -1

// costing is what one scheduler run learns of an expression's alternative,
// whatever request asked for it: a plan's cost depends only on the
// expression and the children's best plans under the child requests, and
// those are final once the children's jobs are done. It holds the
// properties the children's best plans deliver together, or noPlan, and the
// cost: until a request the delivery satisfies has asked, cost is the
// children's total and costed is false; then the local cost is added. A
// later run may improve a child's best plan, so a costing serves only the
// run it was made in (Memo.BeginRun). Its child ids, one per child of the
// expression, are at offset off of the id chunks.
type costing struct {
	next      CostingID // the expression's next older costing; 0 ends the chain
	off       int32
	delivered DerivedID
	costed    bool
	localCost float64
	cost      float64
}

// newEntry stores e in the entry chunks and returns its index. Indexes
// start at 1, so 0 can end a chain.
func (m *Memo) newEntry(e localEntry) int32 {
	if m.nEntries%entryChunk == 0 {
		m.entries = append(m.entries, new([entryChunk]localEntry))
	}
	m.entries[m.nEntries/entryChunk][m.nEntries%entryChunk] = e
	m.nEntries++
	return m.nEntries
}

// entry returns the entry with index i (i >= 1).
func (m *Memo) entry(i int32) *localEntry {
	u := uint32(i - 1)
	return &m.entries[u/entryChunk][u%entryChunk]
}

// costing returns the costing with id c (c >= 1).
func (m *Memo) costing(c CostingID) *costing {
	u := uint32(c - 1)
	return &m.costings[u/costingChunk][u%costingChunk]
}

// BeginRun starts a scheduler run: the costings of earlier runs, whose ids
// are all at most runStart, no longer serve (see GroupExpr.Costing).
func (m *Memo) BeginRun() { m.runStart = CostingID(m.nCostings) }

// reserveIDs takes n ids' room in the id chunks and returns its offset. The
// ids of one call never straddle two chunks: a call that does not fit in
// the current chunk's tail starts the next chunk.
func (m *Memo) reserveIDs(n int32) int32 {
	if n == 0 {
		return 0
	}
	off := m.nIDs
	if off%idChunk+n > idChunk {
		off += idChunk - off%idChunk
	}
	if off+n > int32(len(m.ids))*idChunk {
		m.ids = append(m.ids, new([idChunk]ReqID))
	}
	m.nIDs = off + n
	return off
}

// idSlice returns the n ids stored at offset off, capped so that an append
// by the caller copies them instead of overwriting the chunk.
func (m *Memo) idSlice(off, n int32) []ReqID {
	if n == 0 {
		return nil
	}
	c, lo := m.ids[uint32(off)/idChunk], uint32(off)%idChunk
	return c[lo : lo+uint32(n) : lo+uint32(n)]
}

// view builds the Candidate of costing c of an expression with n children,
// viewed through entry i.
func (m *Memo) view(i int32, c *costing, n int) Candidate {
	d, _ := m.Derived(c.delivered)
	return Candidate{ChildReqs: m.idSlice(c.off, int32(n)), LocalCost: c.localCost, Cost: c.cost, Delivered: d, entry: i}
}

// Costing returns the expression's costing, in the current run, of the
// alternative whose child requests are ids, stored at offset off of the id
// chunks; 0 when this run has not costed it. Equal ids stored elsewhere
// match too: a request-only operator's requests that ask the same children
// hold their ids at different offsets.
func (ge *GroupExpr) Costing(off int32, ids []ReqID) CostingID {
	m := ge.group.memo
	for i := ge.costings; i > m.runStart; {
		c := m.costing(i)
		if c.off == off || slices.Equal(m.idSlice(c.off, int32(len(ids))), ids) {
			return i
		}
		i = c.next
	}
	return 0
}

// AddCosting stores the current run's costing of the alternative whose
// child ids are at offset off: the children's best plans deliver delivered
// together at a total cost of childCost. It is not costed until CostLocal.
// Costings are not charged to the accountant, whose prices (sizes.go) keep
// budgets aborting a search at the same points.
func (ge *GroupExpr) AddCosting(off int32, delivered DerivedID, childCost float64) CostingID {
	return ge.addCosting(costing{off: off, delivered: delivered, cost: childCost})
}

// AddNoPlan stores the current run's costing of the alternative whose
// child ids are at offset off, one of whose children has no plan.
func (ge *GroupExpr) AddNoPlan(off int32) CostingID {
	return ge.addCosting(costing{off: off, delivered: noPlan})
}

func (ge *GroupExpr) addCosting(c costing) CostingID {
	m := ge.group.memo
	if m.nCostings%costingChunk == 0 {
		m.costings = append(m.costings, new([costingChunk]costing))
	}
	c.next = ge.costings
	m.costings[m.nCostings/costingChunk][m.nCostings%costingChunk] = c
	m.nCostings++
	ge.costings = CostingID(m.nCostings)
	return ge.costings
}

// CostingDelivered returns what the children's best plans deliver together
// under costing c; ok is false when one of them has no plan.
func (m *Memo) CostingDelivered(c CostingID) (d props.Derived, ok bool) {
	k := m.costing(c)
	if k.delivered == noPlan {
		return d, false
	}
	return m.Derived(k.delivered)
}

// Costed reports whether costing c holds its plan's local cost.
func (m *Memo) Costed(c CostingID) bool { return m.costing(c).costed }

// CostLocal completes costing c with its plan's local cost.
func (m *Memo) CostLocal(c CostingID, local float64) {
	k := m.costing(c)
	k.localCost, k.cost, k.costed = local, local+k.cost, true
}

// record stores the entry e (its next ignored) in the local table.
// Re-costing an alternative in a later optimization pass points its entry
// at the new costing rather than appending a duplicate, so the table stays
// one entry per (request, alternative), in the order each was first
// costed. With replace set it first looks for the entry of the same request
// and alternative from an earlier pass; without, the caller knows there is
// none and e is appended at the chain's tail.
func (ge *GroupExpr) record(e localEntry, replace bool) {
	m := ge.group.memo
	if replace {
		for i := ge.local; i != 0; {
			old := m.entry(i)
			if old.req == e.req && old.alt == e.alt {
				old.costing = e.costing
				return
			}
			i = old.next
		}
	}
	e.next = 0
	i := m.newEntry(e)
	if ge.local == 0 {
		ge.local = i
	} else {
		m.entry(ge.tail).next = i
	}
	ge.tail = i
	m.mem.Charge(candidateSizeBytes(len(ge.Children)))
}

// unlink removes the entry of request req and alternative alt from the
// local table, if there is one.
func (ge *GroupExpr) unlink(req ReqID, alt int32) {
	m := ge.group.memo
	var prev int32
	for i := ge.local; i != 0; prev, i = i, m.entry(i).next {
		e := m.entry(i)
		if e.req != req || e.alt != alt {
			continue
		}
		if prev == 0 {
			ge.local = e.next
		} else {
			m.entry(prev).next = e.next
		}
		if ge.tail == i {
			ge.tail = prev
		}
		return
	}
}

// ChildReqs returns the interned child requests of every alternative the
// expression's physical operator offers under the interned request id,
// alternative-major — ids[a*len(ge.Children)+c] is child c's request in
// alternative a — with their offset in the Memo's id chunks and the number
// of alternatives. The ids are the Memo's and read-only. A request-invariant
// operator's are interned once per expression, a request-only operator's
// once per (operator kind, request) and shared by every expression of that
// kind; the rest, whose requests depend on both (ComputeScalar), are
// interned on every call. reqs is the caller's scratch for the operator's
// requests, left grown for the next call.
func (ge *GroupExpr) ChildReqs(id ReqID, reqs *[]props.Required) (ids []ReqID, off int32, alts int) {
	m := ge.group.memo
	var n int32
	switch op := ge.Op.(type) {
	case ops.RequestInvariant:
		if ge.invN == 0 {
			ge.invOff, ge.invN = m.internChildReqs(op, id, reqs)
		}
		off, n = ge.invOff, ge.invN
	case ops.RequestOnly:
		s := m.reqOnlySpan(op.RequestOnlyKind(), id)
		if s.n == 0 {
			s.off, s.n = m.internChildReqs(op, id, reqs)
		}
		off, n = s.off, s.n
	default:
		off, n = m.internChildReqs(ge.Op.(ops.Physical), id, reqs)
	}
	if len(ge.Children) == 0 {
		return nil, off, 1
	}
	return m.idSlice(off, n), off, int(n) / len(ge.Children)
}

// idSpan locates n ids at offset off of the id chunks; n is 0 until they
// are stored.
type idSpan struct{ off, n int32 }

// reqOnlySpan returns the table slot of a request-only operator kind's
// child requests under the interned request id, growing the table to it.
func (m *Memo) reqOnlySpan(kind int, id ReqID) *idSpan {
	t := &m.reqOnly[kind]
	if int(id) >= len(*t) {
		*t = append(*t, make([]idSpan, int(id)+1-len(*t))...)
	}
	return &(*t)[id]
}

// internChildReqs interns the child requests op asks under the interned
// request id into the id chunks and returns where they are.
func (m *Memo) internChildReqs(op ops.Physical, id ReqID, reqs *[]props.Required) (off, n int32) {
	req, _ := m.Req(id)
	*reqs = op.AppendChildReqs(req, (*reqs)[:0])
	n = int32(len(*reqs))
	off = m.reserveIDs(n)
	ids := m.idSlice(off, n)
	for i, r := range *reqs {
		ids[i] = m.InternReq(r)
	}
	return off, n
}

// Candidates returns the costed alternatives recorded for an interned
// request, in the order they were first costed, which TAQO's unranking
// depends on.
func (ge *GroupExpr) Candidates(id ReqID) []Candidate {
	m := ge.group.memo
	var out []Candidate
	for i := ge.local; i != 0; {
		e := m.entry(i)
		if e.req == id {
			out = append(out, m.view(i, m.costing(e.costing), len(ge.Children)))
		}
		i = e.next
	}
	return out
}
