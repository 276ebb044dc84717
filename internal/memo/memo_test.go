package memo

import (
	"reflect"
	"testing"

	"orca/internal/base"
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

	ctx, created := g.Context(req)
	if !created {
		t.Fatal("first Context must create")
	}
	if _, created := g.Context(req); created {
		t.Fatal("second Context must dedup (the group hash table)")
	}
	if g.LookupContext(props.Required{Dist: props.AnyDist}) != nil {
		t.Error("LookupContext invented a context")
	}

	ge := g.Exprs()[0]
	ctx.Offer(ge, Candidate{Cost: 100})
	ctx.Offer(ge, Candidate{Cost: 50})
	ctx.Offer(ge, Candidate{Cost: 70})
	if _, cand, ok := ctx.Best(); !ok || cand.Cost != 50 {
		t.Errorf("best = %v, want cost 50", cand)
	}
	if ctx.BestCost() != 50 {
		t.Errorf("BestCost = %v", ctx.BestCost())
	}
}

func TestAddEnforcers(t *testing.T) {
	m := New(&gpos.MemoryAccountant{})
	f := md.NewColumnFactory()
	root, _ := m.Insert(paperTree(f))
	g := m.Group(root)
	req := props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(0)}
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
	cand := Candidate{ChildReqs: []props.Required{{Dist: props.AnyDist}, {Dist: props.ReplicatedDist}}, Cost: 9}
	ge.AddCandidate(m.InternReq(req), cand)
	got := ge.Candidates(req)
	if len(got) != 1 || got[0].Cost != 9 || len(got[0].ChildReqs) != 2 {
		t.Errorf("candidates = %+v", got)
	}
	if ge.Candidates(props.Required{Dist: props.AnyDist}) != nil {
		t.Error("candidates leaked across requests")
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
