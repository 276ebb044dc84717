package memo

import (
	"reflect"
	"testing"

	"orca/internal/base"
	"orca/internal/fault"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/props"
)

func testGet(name string, f *md.ColumnFactory) *ops.Expr {
	p := md.NewMemProvider()
	rel := md.Build(p, md.TableSpec{
		Name: name, Rows: 100, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 100, Lo: 0, Hi: 100},
			{Name: "b", Type: base.TInt, NDV: 10, Lo: 0, Hi: 10},
		},
	})
	cols := []*md.ColRef{
		f.NewTableColumn("a", base.TInt, rel.Mdid, 0),
		f.NewTableColumn("b", base.TInt, rel.Mdid, 1),
	}
	return ops.NewExpr(&ops.Get{Alias: name, Rel: rel, Cols: cols})
}

// paperTree builds InnerJoin(Get(T1), Get(T2)) — the paper's Figure 4.
func paperTree(f *md.ColumnFactory) *ops.Expr {
	t1 := testGet("T1", f)
	t2 := testGet("T2", f)
	pred := ops.Eq(
		ops.NewIdent(t1.Op.(*ops.Get).Cols[0].ID, base.TInt),
		ops.NewIdent(t2.Op.(*ops.Get).Cols[1].ID, base.TInt))
	return ops.NewExpr(&ops.Join{Type: ops.InnerJoin, Pred: pred}, t1, t2)
}

func TestInsertCreatesGroupsBottomUp(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	f := md.NewColumnFactory()
	root, err := m.Insert(paperTree(f))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4: three groups — two Gets and the join.
	if m.NumGroups() != 3 {
		t.Errorf("groups = %d, want 3 (paper Figure 4)", m.NumGroups())
	}
	g := m.Group(root)
	if len(g.Exprs()) != 1 {
		t.Errorf("root group exprs = %d", len(g.Exprs()))
	}
	join := g.Exprs()[0]
	if join.Op.Name() != "InnerJoin" || len(join.Children) != 2 {
		t.Errorf("root gexpr = %s", join)
	}
	mustValidate(t, m)
}

// mustValidate asserts the Memo's structural invariants (see validate.go);
// it cross-covers orcavet's publish analyzer at runtime.
func mustValidate(t *testing.T, m *Memo) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("Memo.Validate: %v", err)
	}
}

func TestDuplicateDetection(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	f := md.NewColumnFactory()
	tree := paperTree(f)
	root, err := m.Insert(tree)
	if err != nil {
		t.Fatal(err)
	}
	before := m.NumExprs()
	// Re-inserting the identical tree must be a complete no-op (the Memo's
	// topology-based duplicate detection, §4.1 step 1).
	root2, err := m.Insert(tree)
	if err != nil {
		t.Fatal(err)
	}
	if root2 != root || m.NumExprs() != before {
		t.Errorf("duplicate insert changed the Memo: root %d->%d, exprs %d->%d",
			root, root2, before, m.NumExprs())
	}
	// Inserting the commuted join adds exactly one expression to the group.
	join := tree.Op.(*ops.Join)
	g := m.Group(root)
	ge := g.Exprs()[0]
	if _, err := m.InsertExpr(&ops.Join{Type: ops.InnerJoin, Pred: join.Pred},
		[]GroupID{ge.Children[1], ge.Children[0]}, root); err != nil {
		t.Fatal(err)
	}
	if len(g.Exprs()) != 2 {
		t.Errorf("commuted join not added: %d exprs", len(g.Exprs()))
	}
	if m.NumExprs() != before+1 {
		t.Errorf("expected exactly one new expression")
	}
	mustValidate(t, m)
}

func TestGroupLogicalProps(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	f := md.NewColumnFactory()
	root, _ := m.Insert(paperTree(f))
	out := m.Group(root).Logical().OutputCols
	if out.Len() != 4 {
		t.Errorf("join output cols = %s, want 4 columns", out)
	}
}

func TestOptContextDedupAndBest(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	f := md.NewColumnFactory()
	root, _ := m.Insert(paperTree(f))
	g := m.Group(root)
	req := props.Required{Dist: props.SingletonDist}

	ctx, created := g.Context(m.InternReq(req))
	if !created {
		t.Fatal("first Context must create")
	}
	if _, created := g.Context(m.InternReq(req)); created {
		t.Fatal("second Context must dedup (the group hash table)")
	}
	if g.LookupContext(props.Required{Dist: props.AnyDist}) != nil {
		t.Error("LookupContext invented a context")
	}

	ge := g.Exprs()[0]
	id := m.InternReq(req)
	for i, cost := range []float64{100, 50, 70} {
		ctx.Offer(ge, ge.AddCandidate(id, i, Candidate{ChildReqs: []ReqID{ReqID(i)}, Cost: cost}))
	}
	if _, cand, ok := ctx.Best(); !ok || cand.Cost != 50 {
		t.Errorf("best = %v, want cost 50", cand)
	}
	if ctx.BestCost() != 50 {
		t.Errorf("BestCost = %v", ctx.BestCost())
	}
}

func TestAddEnforcers(t *testing.T) {
	for _, c := range []struct {
		name string
		// faults, when set, are armed for a first AddEnforcers call that must
		// fail; the call after it must still insert every enforcer.
		faults string
	}{
		{name: "clean"},
		{name: "after failed insert", faults: "memo/insert:error:limit=1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := New(&gpos.MemoryAccountant{})
			f := md.NewColumnFactory()
			root, _ := m.Insert(paperTree(f))
			g := m.Group(root)
			req := props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(0)}
			if c.faults != "" {
				specs, err := fault.ParseSpecs(c.faults)
				if err != nil {
					t.Fatal(err)
				}
				disarm, err := fault.Arm(specs)
				if err != nil {
					t.Fatal(err)
				}
				err = g.AddEnforcers(req)
				disarm()
				if err == nil {
					t.Fatalf("AddEnforcers with %s armed: want the injected error", c.faults)
				}
			}
			if err := g.AddEnforcers(req); err != nil {
				t.Fatal(err)
			}
			names := map[string]bool{}
			for _, ge := range g.Exprs() {
				if ge.IsEnforcer() {
					names[ge.Op.Name()] = true
					if ge.Children[0] != g.ID {
						t.Errorf("enforcer %s child is %d, want own group %d (paper Figure 6)",
							ge.Op.Name(), ge.Children[0], g.ID)
					}
				}
			}
			for _, want := range []string{"Sort", "Gather", "GatherMerge"} {
				if !names[want] {
					t.Errorf("missing enforcer %s for %s; have %v", want, req, names)
				}
			}
			n := len(g.Exprs())
			// Idempotent per request.
			if err := g.AddEnforcers(req); err != nil {
				t.Fatal(err)
			}
			if len(g.Exprs()) != n {
				t.Error("AddEnforcers not idempotent")
			}
			mustValidate(t, m)
		})
	}
}

func TestEnforcerUseful(t *testing.T) {
	ordReq := props.Required{Dist: props.AnyDist, Order: props.MakeOrder(1)}
	plainReq := props.Required{Dist: props.AnyDist}
	singleReq := props.Required{Dist: props.SingletonDist}
	cases := []struct {
		op   ops.Operator
		req  props.Required
		want bool
	}{
		{&ops.Sort{Order: props.MakeOrder(1)}, ordReq, true},
		{&ops.Sort{Order: props.MakeOrder(1)}, plainReq, false}, // cycle guard
		{&ops.Sort{Order: props.MakeOrder(2)}, ordReq, false},
		{&ops.Gather{}, singleReq, true},
		{&ops.Gather{}, props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(1)}, false},
		{&ops.GatherMerge{Order: props.MakeOrder(1)}, props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(1)}, true},
		{&ops.Redistribute{Cols: []base.ColID{1}}, props.Required{Dist: props.Hashed(1)}, true},
		{&ops.Redistribute{Cols: []base.ColID{2}}, props.Required{Dist: props.Hashed(1)}, false},
		{&ops.Broadcast{}, props.Required{Dist: props.ReplicatedDist}, true},
		{&ops.Broadcast{}, singleReq, false},
		{&ops.Spool{}, props.Required{Dist: props.AnyDist, Rewindable: true}, true},
		{&ops.Spool{}, plainReq, false},
	}
	for _, c := range cases {
		if got := EnforcerUseful(c.op, c.req); got != c.want {
			t.Errorf("EnforcerUseful(%s, %s) = %v, want %v", c.op.Name(), c.req, got, c.want)
		}
	}
}

func TestExtractPlanFailsWithoutOptimization(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	f := md.NewColumnFactory()
	root, _ := m.Insert(paperTree(f))
	if _, err := m.ExtractPlan(root, props.Required{Dist: props.SingletonDist}); err == nil {
		t.Error("extraction must fail before optimization")
	}
}

func TestMarkApplied(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	f := md.NewColumnFactory()
	root, _ := m.Insert(paperTree(f))
	ge := m.Group(root).Exprs()[0]
	const ruleX, ruleY = 3, 67 // two dense rule ids spanning bitset words
	if ge.Applied(ruleX) {
		t.Error("fresh expression must report no applied rules")
	}
	if !ge.MarkApplied(ruleX) {
		t.Error("first application must succeed")
	}
	if ge.MarkApplied(ruleX) {
		t.Error("rules must fire once per expression")
	}
	if !ge.MarkApplied(ruleY) {
		t.Error("different rule must still fire")
	}
	if !ge.Applied(ruleX) || !ge.Applied(ruleY) {
		t.Error("applied ledger lost a recorded rule")
	}
}

func TestCandidateLinkage(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	f := md.NewColumnFactory()
	root, _ := m.Insert(paperTree(f))
	ge := m.Group(root).Exprs()[0]
	req := props.Required{Dist: props.SingletonDist}
	childReqs := []props.Required{{Dist: props.AnyDist}, {Dist: props.ReplicatedDist}}
	ids := []ReqID{m.InternReq(childReqs[0]), m.InternReq(childReqs[1])}
	cand := Candidate{ChildReqs: ids, Cost: 9}
	ge.AddCandidate(m.InternReq(req), 0, cand)
	got := ge.Candidates(m.InternReq(req))
	if len(got) != 1 || got[0].Cost != 9 || len(got[0].ChildReqs) != 2 {
		t.Errorf("candidates = %+v", got)
	}
	for i, id := range got[0].ChildReqs {
		if creq, ok := m.Req(id); !ok || !creq.Equal(childReqs[i]) {
			t.Errorf("child %d reads back as %s, want %s", i, creq, childReqs[i])
		}
	}
	if ge.Candidates(m.InternReq(props.Required{Dist: props.AnyDist})) != nil {
		t.Error("candidates leaked across requests")
	}
}

// TestLocalTableOrderAndReplace pins the local table's contract: a request's
// candidates come back in the order they were first costed, re-costing an
// alternative (the same request and alternative index) replaces its entry
// in place, and a candidate AddCandidate recorded owns its child ids — the
// caller's buffer can change after.
func TestLocalTableOrderAndReplace(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	root, _ := m.Insert(paperTree(md.NewColumnFactory()))
	ge := m.Group(root).Exprs()[0]
	a, b := m.InternReq(props.Required{Dist: props.SingletonDist}), m.InternReq(props.Required{Dist: props.AnyDist})
	buf := []ReqID{a, b}
	rec := ge.AddCandidate(a, 0, Candidate{ChildReqs: buf, Cost: 1})
	ge.AddCandidate(b, 0, Candidate{ChildReqs: []ReqID{a, b}, Cost: 2})
	ge.AddCandidate(a, 1, Candidate{ChildReqs: []ReqID{b, a}, Cost: 3})
	ge.AddCandidate(a, 0, Candidate{ChildReqs: []ReqID{a, b}, Cost: 4})
	buf[0], buf[1] = b, b
	if rec.ChildReqs[0] != a || rec.ChildReqs[1] != b {
		t.Errorf("recorded candidate shares the caller's ids: %v", rec.ChildReqs)
	}
	costs := func(req ReqID) (out []float64) {
		for _, c := range ge.Candidates(req) {
			out = append(out, c.Cost)
		}
		return out
	}
	if got := costs(a); !reflect.DeepEqual(got, []float64{4, 3}) {
		t.Errorf("candidates for the first request cost %v, want [4 3]", got)
	}
	if got := costs(b); !reflect.DeepEqual(got, []float64{2}) {
		t.Errorf("candidates for the second request cost %v, want [2]", got)
	}
}

// TestChildReqsInternsAlternatives checks GroupExpr.ChildReqs against the
// operator's own requests: ids alternative-major, one alternative per arity
// requests, at the offset returned; a RequestInvariant operator's ids
// interned once and shared across requests; and a RequestOnly operator's
// interned once per request and shared by every expression of its kind.
func TestChildReqsInternsAlternatives(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	root, _ := m.Insert(paperTree(md.NewColumnFactory()))
	kids := m.Group(root).Exprs()[0].Children
	var scratch []props.Required
	nl := map[int][]ReqID{} // the first NLJoin's ids, by request
	for _, tc := range []struct {
		op        ops.Physical
		alts      int
		invariant bool
	}{
		{&ops.HashJoin{Type: ops.InnerJoin, LeftKeys: []base.ColID{1}, RightKeys: []base.ColID{2}}, 4, true},
		{&ops.NLJoin{Type: ops.InnerJoin}, 2, false},
		{&ops.NLJoin{Type: ops.LeftJoin}, 2, false},
	} {
		ge, err := m.InsertExpr(tc.op, kids, root)
		if err != nil {
			t.Fatal(err)
		}
		var first []ReqID
		for ri, req := range []props.Required{{Dist: props.SingletonDist}, {Dist: props.AnyDist, Order: props.MakeOrder(1)}} {
			ids, off, n := ge.ChildReqs(m.InternReq(req), &scratch)
			if &ids[0] != &m.idSlice(off, 1)[0] {
				t.Errorf("%s: ids are not at offset %d of the id chunks", tc.op.Name(), off)
			}
			want := tc.op.AppendChildReqs(req, nil)
			if n != tc.alts || len(ids) != len(want) {
				t.Fatalf("%s: %d alternatives, %d ids; want %d, %d", tc.op.Name(), n, len(ids), tc.alts, len(want))
			}
			for i, id := range ids {
				if creq, _ := m.Req(id); !creq.Equal(want[i]) {
					t.Errorf("%s: id %d reads back as %s, want %s", tc.op.Name(), i, creq, want[i])
				}
			}
			if first == nil {
				first = ids
			} else if shared := &first[0] == &ids[0]; shared != tc.invariant {
				t.Errorf("%s: ids shared across requests = %v, want %v", tc.op.Name(), shared, tc.invariant)
			}
			if _, ok := tc.op.(ops.RequestOnly); !ok {
				continue
			}
			if prev := nl[ri]; prev == nil {
				nl[ri] = ids
			} else if &prev[0] != &ids[0] {
				t.Errorf("%s: ids under %s not shared with the other NLJoin's", tc.op.Name(), req)
			}
		}
	}
}

// TestAppliedLedgerIsBitset pins the applied-rule ledger's representation:
// a bitset over the dense generated rule IDs. A string-keyed map would put
// string hashing back on every rule-firing check.
func TestAppliedLedgerIsBitset(t *testing.T) {
	f, ok := reflect.TypeOf((*GroupExpr)(nil)).Elem().FieldByName("applied")
	if !ok || f.Type != reflect.TypeOf([]uint64(nil)) {
		t.Fatalf("GroupExpr.applied is %v, want []uint64 (a bitset over dense rule IDs)", f.Type)
	}
}
