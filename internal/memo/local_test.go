package memo

import (
	"reflect"
	"testing"

	"orca/internal/base"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/props"
)

// AddCandidate records alternative alt of the expression's child requests,
// costed for the interned request id, as search's OptContext.Record does,
// except that it copies the caller's child ids into the Memo's chunks and
// always looks for an earlier entry to replace. It returns the candidate as
// recorded.
func (ge *GroupExpr) AddCandidate(id ReqID, alt int, c Candidate) Candidate {
	m := ge.group.memo
	n := int32(len(c.ChildReqs))
	off := m.reserveIDs(n)
	copy(m.idSlice(off, n), c.ChildReqs)
	i := ge.record(localEntry{
		req: id, alt: int32(alt), off: off, n: n,
		localCost: c.LocalCost, cost: c.Cost, delivered: m.InternDerived(c.Delivered),
	}, true)
	return m.view(i, m.entry(i))
}

// Offer proposes a candidate AddCandidate returned to the context.
func (c *OptContext) Offer(ge *GroupExpr, cand Candidate) { c.offer(ge, cand.entry) }

// hasPointers reports whether a value of type t holds any pointer the
// collector would have to trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true
	}
}

// TestLocalTableIsPointerFree pins the local table's layout: its entries and
// both chunk types hold no pointer, so the collector allocates the chunks
// in spans it never scans, and an entry fits in 40 bytes.
func TestLocalTableIsPointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(localEntry{}),
		reflect.TypeOf([entryChunk]localEntry{}),
		reflect.TypeOf([idChunk]ReqID{}),
	} {
		if hasPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
	if size := reflect.TypeOf(localEntry{}).Size(); size > 40 {
		t.Errorf("localEntry is %d bytes, want at most 40", size)
	}
	for _, f := range []string{"entries", "ids"} {
		sf, _ := reflect.TypeOf(Memo{}).FieldByName(f)
		if sf.Type.Kind() != reflect.Slice || sf.Type.Elem().Kind() != reflect.Pointer || hasPointers(sf.Type.Elem().Elem()) {
			t.Errorf("Memo.%s is %v, want a slice of pointers to pointer-free chunks", f, sf.Type)
		}
	}
}

// TestLocalTableSpansChunks records more alternatives than one entry chunk
// holds, on two expressions in turn, and checks the contract of
// TestLocalTableOrderAndReplace across the chunk boundary: first-costed
// order per request and per expression, and in-place replacement of an
// entry in a later chunk.
func TestLocalTableSpansChunks(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	root, _ := m.Insert(paperTree(md.NewColumnFactory()))
	g := m.Group(root)
	join := g.Exprs()[0]
	other, err := m.InsertExpr(join.Op, []GroupID{join.Children[1], join.Children[0]}, root)
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.InternReq(props.Required{Dist: props.SingletonDist}), m.InternReq(props.Required{Dist: props.AnyDist})
	const n = 2*entryChunk + 10
	for i := 0; i < n; i++ {
		ge, req := join, a
		if i%3 == 0 {
			ge = other
		}
		if i%2 == 0 {
			req = b
		}
		ge.AddCandidate(req, i, Candidate{ChildReqs: []ReqID{ReqID(i), ReqID(i + 1)}, Cost: float64(i)})
	}
	if m.nEntries != n || len(m.entries) != 3 {
		t.Fatalf("%d entries in %d chunks, want %d in 3", m.nEntries, len(m.entries), n)
	}
	const late = 2*entryChunk + 5 // lands in the third chunk
	join.AddCandidate(a, late, Candidate{ChildReqs: []ReqID{late, late + 1}, Cost: -1})
	if m.nEntries != n {
		t.Errorf("re-costing appended an entry: %d entries", m.nEntries)
	}
	for _, tc := range []struct {
		ge  *GroupExpr
		req ReqID
	}{{join, a}, {join, b}, {other, a}, {other, b}} {
		var want []float64
		for i := 0; i < n; i++ {
			if (i%3 == 0) == (tc.ge == other) && (i%2 == 0) == (tc.req == b) {
				want = append(want, float64(i))
			}
		}
		var got []float64
		for _, c := range tc.ge.Candidates(tc.req) {
			i := int(c.ChildReqs[0])
			if c.ChildReqs[1] != ReqID(i+1) {
				t.Errorf("entry %d reads back child ids %v", i, c.ChildReqs)
			}
			if i == late {
				if c.Cost != -1 {
					t.Errorf("entry %d cost %v after re-costing, want -1", i, c.Cost)
				}
				c.Cost = float64(i)
			}
			got = append(got, c.Cost)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("candidates cost %v, want %v", got, want)
		}
	}
}

// TestCandidateIDsNeverStraddleChunks fills an id chunk until the next
// candidate's ids would straddle its end: they must start the next chunk,
// and every candidate must still read back its own ids.
func TestCandidateIDsNeverStraddleChunks(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	root, _ := m.Insert(paperTree(md.NewColumnFactory()))
	ge := m.Group(root).Exprs()[0]
	req := m.InternReq(props.Required{Dist: props.SingletonDist})
	ids := func(i int) []ReqID { return []ReqID{ReqID(i), ReqID(i), ReqID(i)} }
	const fit = idChunk / 3 // whole candidates that fit in one chunk
	for i := 0; i <= fit; i++ {
		ge.AddCandidate(req, i, Candidate{ChildReqs: ids(i), Cost: float64(i)})
	}
	if len(m.ids) != 2 || m.nIDs != idChunk+3 {
		t.Fatalf("%d id chunks, next free id %d; want 2 and %d", len(m.ids), m.nIDs, idChunk+3)
	}
	cands := ge.Candidates(req)
	if len(cands) != fit+1 {
		t.Fatalf("%d candidates, want %d", len(cands), fit+1)
	}
	for i, c := range cands {
		if !reflect.DeepEqual(c.ChildReqs, ids(i)) || cap(c.ChildReqs) != 3 {
			t.Errorf("candidate %d reads back ids %v (cap %d)", i, c.ChildReqs, cap(c.ChildReqs))
		}
	}
	if last := cands[fit].ChildReqs; &last[0] != &m.ids[1][0] {
		t.Error("the straddling candidate's ids do not start the second chunk")
	}
}

// TestOfferKeepsOfferedCandidate re-costs the best entry in place at a
// higher cost: the table shows the new cost, while the context keeps the
// candidate it was offered, in Best and in BestDelivered alike.
func TestOfferKeepsOfferedCandidate(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	root, _ := m.Insert(paperTree(md.NewColumnFactory()))
	g := m.Group(root)
	ge := g.Exprs()[0]
	req := props.Required{Dist: props.SingletonDist}
	ctx, _ := g.Context(m.InternReq(req))
	id := m.InternReq(req)
	kids := []ReqID{id, id}
	hashed := props.Derived{Dist: props.Hashed(base.ColID(1))}
	ctx.Offer(ge, ge.AddCandidate(id, 0, Candidate{ChildReqs: kids, LocalCost: 1, Cost: 5, Delivered: hashed}))
	ctx.Offer(ge, ge.AddCandidate(id, 0, Candidate{ChildReqs: kids, LocalCost: 2, Cost: 7}))
	if got := ge.Candidates(id); len(got) != 1 || got[0].Cost != 7 {
		t.Fatalf("local table holds %+v, want the one re-costed entry", got)
	}
	best, cand, ok := ctx.Best()
	if !ok || best != ge || cand.Cost != 5 || cand.LocalCost != 1 || !cand.Delivered.Equal(hashed) ||
		!reflect.DeepEqual(cand.ChildReqs, kids) || ctx.BestCost() != 5 {
		t.Errorf("best = %+v, want the offered candidate of cost 5", cand)
	}
	if id, cost, ok := ctx.BestDelivered(); !ok || cost != 5 {
		t.Errorf("BestDelivered = %d, %v, %v; want the offered candidate's", id, cost, ok)
	} else if d, _ := m.Derived(id); !d.Equal(hashed) {
		t.Errorf("BestDelivered delivers %s; want the offered candidate's %s", d, hashed)
	}
}

// TestInternDerived checks the delivered-property table: exact equality,
// dense ids in first-seen order, and tables that belong to one Memo.
func TestInternDerived(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	ds := []props.Derived{
		{Dist: props.SingletonDist},
		{Dist: props.Hashed(1, 2), Order: props.MakeOrder(2)},
		{Dist: props.Hashed(1, 2), Order: props.MakeOrder(2), Rewindable: true},
		{Dist: props.Hashed(2, 1), Order: props.MakeOrder(2)},
	}
	for i, d := range ds {
		if id := m.InternDerived(d); id != DerivedID(i) {
			t.Errorf("%s interned as %d, want %d", d, id, i)
		}
	}
	for i, d := range ds {
		copied := props.Derived{Dist: props.Hashed(d.Dist.Cols...), Order: props.MakeOrder(), Rewindable: d.Rewindable}
		copied.Dist.Kind = d.Dist.Kind
		copied.Order.Items = append(copied.Order.Items, d.Order.Items...)
		if id := m.InternDerived(copied); id != DerivedID(i) {
			t.Errorf("an equal copy of %s interned as %d, want %d", d, id, i)
		}
		if back, ok := m.Derived(DerivedID(i)); !ok || !back.Equal(d) {
			t.Errorf("id %d reads back as %s, want %s", i, back, d)
		}
	}
	if _, ok := m.Derived(DerivedID(len(ds))); ok {
		t.Error("Derived read back an id never handed out")
	}
	if id := New(nil).InternDerived(ds[3]); id != 0 {
		t.Errorf("a fresh Memo interned its first delivery as %d, want 0", id)
	}
}

// TestEpochBitsets checks the per-epoch completion markers of groups and
// contexts past the first bitset word.
func TestEpochBitsets(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	root, _ := m.Insert(paperTree(md.NewColumnFactory()))
	g := m.Group(root)
	ctx, _ := g.Context(m.InternReq(props.Required{Dist: props.SingletonDist}))
	const epoch = 70
	g.SetExplored(epoch)
	g.SetImplemented(3)
	ctx.MarkDone(epoch)
	for _, tc := range []struct {
		name string
		f    func(int) bool
		set  int
	}{{"Explored", g.Explored, epoch}, {"Implemented", g.Implemented, 3}, {"Done", ctx.Done, epoch}} {
		for _, e := range []int{0, 3, 6, 64, epoch, 134} {
			if got := tc.f(e); got != (e == tc.set) {
				t.Errorf("%s(%d) = %v, want %v", tc.name, e, got, e == tc.set)
			}
		}
	}
}

// TestPriceTable pins what the memory accountant charges per building
// block, whatever the blocks' layouts: a budget aborts a search at the same
// point until this table changes on purpose.
func TestPriceTable(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"group", groupSizeBytes(), 96},
		{"leaf expression", exprSizeBytes(0), 112},
		{"binary expression", exprSizeBytes(2), 120},
		{"context", optCtxSizeBytes(), 244},
		{"leaf candidate", candidateSizeBytes(0), 128},
		{"binary candidate", candidateSizeBytes(2), 272},
	} {
		if tc.got != tc.want {
			t.Errorf("%s priced %d bytes, want %d", tc.name, tc.got, tc.want)
		}
	}
}
