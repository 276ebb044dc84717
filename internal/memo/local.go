package memo

import (
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

// localEntry is one entry of an expression's local table: alternative alt
// of the expression's child requests, costed for the interned request req,
// with its n child ids at offset off of the id chunks, and the index of the
// chain's next entry (0 ends it).
type localEntry struct {
	req       ReqID
	next      int32
	delivered DerivedID
	alt       int32
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

// view builds the Candidate of entry e, whose index is i.
func (m *Memo) view(i int32, e *localEntry) Candidate {
	d, _ := m.Derived(e.delivered)
	return Candidate{ChildReqs: m.idSlice(e.off, e.n), LocalCost: e.localCost, Cost: e.cost, Delivered: d, entry: i}
}

// record stores the costed alternative e (its next ignored) in the local
// table and returns its entry's index. Re-costing an alternative in a later
// optimization pass updates its entry rather than appending a duplicate, so
// the table stays one entry per (request, alternative), in the order each
// was first costed. With replace set it first looks for the entry of the same
// request and alternative from an earlier pass, and updates that in place;
// without, the caller knows there is none and e is appended at the chain's
// tail.
func (ge *GroupExpr) record(e localEntry, replace bool) int32 {
	m := ge.group.memo
	if replace {
		for i := ge.local; i != 0; {
			old := m.entry(i)
			if old.req == e.req && old.alt == e.alt {
				old.delivered, old.localCost, old.cost = e.delivered, e.localCost, e.cost
				return i
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
	m.mem.Charge(candidateSizeBytes(int(e.n)))
	return i
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
			out = append(out, m.view(i, e))
		}
		i = e.next
	}
	return out
}
