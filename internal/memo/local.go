package memo

import (
	"slices"

	"orca/internal/ops"
	"orca/internal/props"
)

// The Figure-6 local tables of all of a Memo's expressions share two kinds
// of fixed-size chunk: entries, one per costed alternative, and the
// alternatives' interned child-request ids. Neither element type holds a
// pointer, so the collector allocates the chunks in spans it never scans,
// however large the plan space grows. Chunks are never regrown: a growable
// slice would copy the table at every doubling and keep the old copy until
// the next cycle.
const (
	entryChunk = 256  // localEntry per chunk (10 KB)
	idChunk    = 1024 // ReqID per chunk (4 KB); the most child ids one candidate may have
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

// localEntry is one entry of an expression's local table: a candidate
// costed for the interned request req, with its n child ids at offset off
// of the id chunks, and the index of the chain's next entry (0 ends it).
type localEntry struct {
	req       ReqID
	next      int32
	delivered DerivedID
	off, n    int32
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

// storeIDs copies ids into the id chunks and returns their offset. The ids
// of one call never straddle two chunks: a call that does not fit in the
// current chunk's tail starts the next chunk.
func (m *Memo) storeIDs(ids []ReqID) int32 {
	n := int32(len(ids))
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
	copy(m.idSlice(off, n), ids)
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

// view builds the Candidate of entry e, whose index is i.
func (m *Memo) view(i int32, e *localEntry) Candidate {
	d, _ := m.Derived(e.delivered)
	return Candidate{ChildReqs: m.idSlice(e.off, e.n), LocalCost: e.localCost, Cost: e.cost, Delivered: d, entry: i}
}

// AddCandidate records a costed alternative for the interned request in the
// local table and returns it as recorded: its child ids are then the Memo's
// own, never the caller's memory. Re-costing the same alternative (same
// child requests) in a later optimization pass replaces the earlier entry in
// place rather than appending a duplicate, so the table stays one entry per
// distinct alternative, in the order each was first costed.
func (ge *GroupExpr) AddCandidate(id ReqID, c Candidate) Candidate {
	m := ge.group.memo
	delivered := m.InternDerived(c.Delivered)
	last := int32(0)
	for i := ge.local; i != 0; {
		e := m.entry(i)
		if e.req == id && slices.Equal(m.idSlice(e.off, e.n), c.ChildReqs) {
			e.delivered, e.localCost, e.cost = delivered, c.LocalCost, c.Cost
			return m.view(i, e)
		}
		last, i = i, e.next
	}
	i := m.newEntry(localEntry{
		req: id, delivered: delivered, off: m.storeIDs(c.ChildReqs), n: int32(len(c.ChildReqs)),
		localCost: c.LocalCost, cost: c.Cost,
	})
	if last == 0 {
		ge.local = i
	} else {
		m.entry(last).next = i
	}
	m.mem.Charge(candidateSizeBytes(len(c.ChildReqs)))
	return m.view(i, m.entry(i))
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
	m := ge.group.memo
	if ge.invN > 0 {
		ids = m.idSlice(ge.invOff, ge.invN)
	} else {
		phys := ge.Op.(ops.Physical)
		*reqs = phys.AppendChildReqs(req, (*reqs)[:0])
		ids = ids[:0]
		for _, r := range *reqs {
			ids = append(ids, m.InternReq(r))
		}
		if _, invariant := phys.(ops.RequestInvariant); invariant && len(ids) > 0 {
			ge.invOff, ge.invN = m.storeIDs(ids), int32(len(ids))
			ids = m.idSlice(ge.invOff, ge.invN)
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
	m := ge.group.memo
	var out []Candidate
	for i := ge.local; i != 0; {
		e := m.entry(i)
		if e.req == id {
			out = append(out, m.view(i, e))
		}
		i = e.next
	}
	return out
}
