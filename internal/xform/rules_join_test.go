package xform

import (
	"fmt"
	"testing"

	"orca/internal/base"
	"orca/internal/memo"
	"orca/internal/ops"
)

// eq builds key(l,0) = key(r,0) over the env tables.
func (e *env) eq(l string, lord int, r string, rord int) ops.ScalarExpr {
	return ops.Eq(
		ops.NewIdent(e.key(l, lord), base.TInt),
		ops.NewIdent(e.key(r, rord), base.TInt))
}

// insertJoin inserts top ⋈ built from the given node and returns the root
// group expression.
func (e *env) insertJoin(t testing.TB, tree *ops.Expr) *memo.GroupExpr {
	t.Helper()
	root, err := e.ctx.Memo.Insert(tree)
	if err != nil {
		t.Fatal(err)
	}
	return e.ctx.Memo.Group(root).Exprs()[0]
}

// joinShapes renders every Join expression in the group as "L⋈R" with the
// leaf relation names, descending one level into nested join groups.
func (e *env) joinShapes(g *memo.Group) []string {
	var shapes []string
	for _, x := range g.Exprs() {
		if _, ok := x.Op.(*ops.Join); !ok {
			continue
		}
		shapes = append(shapes, fmt.Sprintf("%s⋈%s",
			e.describe(x.Children[0]), e.describe(x.Children[1])))
	}
	return shapes
}

func (e *env) describe(id memo.GroupID) string {
	g := e.ctx.Memo.Group(id)
	for _, x := range g.Exprs() {
		switch op := x.Op.(type) {
		case *ops.Get:
			return op.Alias
		case *ops.Join:
			return "(" + e.describe(x.Children[0]) + "⋈" + e.describe(x.Children[1]) + ")"
		}
	}
	return "?"
}

func hasShape(shapes []string, want string) bool {
	for _, s := range shapes {
		if s == want {
			return true
		}
	}
	return false
}

func TestJoinAssociativityLeftToRight(t *testing.T) {
	e := newEnv(t)
	// (big ⋈ mid) ⋈ small with big.k=mid.k below and mid.k=small.k on top.
	lower := ops.NewExpr(
		&ops.Join{Type: ops.InnerJoin, Pred: e.eq("big", 0, "mid", 0)},
		ops.NewExpr(e.gets["big"]), ops.NewExpr(e.gets["mid"]))
	ge := e.insertJoin(t, ops.NewExpr(
		&ops.Join{Type: ops.InnerJoin, Pred: e.eq("mid", 0, "small", 0)},
		lower, ops.NewExpr(e.gets["small"])))

	rule := &JoinAssociativity{}
	if !rule.Matches(ge) {
		t.Fatal("associativity does not match an inner join")
	}
	if err := rule.Apply(e.ctx, ge); err != nil {
		t.Fatal(err)
	}
	shapes := e.joinShapes(ge.Group())
	if !hasShape(shapes, "big⋈(mid⋈small)") {
		t.Fatalf("right rotation missing: shapes = %v", shapes)
	}
	// Re-applying regenerates the same alternative; duplicate detection in
	// the memo must absorb it.
	before := ge.Group().NumExprs()
	if err := rule.Apply(e.ctx, ge); err != nil {
		t.Fatal(err)
	}
	if after := ge.Group().NumExprs(); after != before {
		t.Errorf("duplicate detection failed: %d -> %d exprs", before, after)
	}
}

func TestPushSelectThroughJoin(t *testing.T) {
	e := newEnv(t)
	lt := func(tab string, v int64) ops.ScalarExpr {
		return ops.NewCmp(ops.CmpLt, ops.NewIdent(e.key(tab, 1), base.TInt), ops.NewConst(base.NewInt(v)))
	}
	join := ops.NewExpr(
		&ops.Join{Type: ops.InnerJoin, Pred: e.eq("big", 0, "mid", 0)},
		ops.NewExpr(e.gets["big"]), ops.NewExpr(e.gets["mid"]))
	// One conjunct per side plus a cross-side residual.
	pred := ops.And(lt("big", 10), lt("mid", 5),
		ops.Eq(ops.NewIdent(e.key("big", 1), base.TInt), ops.NewIdent(e.key("mid", 1), base.TInt)))
	ge := e.insertJoin(t, ops.NewExpr(&ops.Select{Pred: pred}, join))

	rule := &PushSelectThroughJoin{}
	if !rule.Matches(ge) {
		t.Fatal("pushdown does not match a select with a predicate")
	}
	if err := rule.Apply(e.ctx, ge); err != nil {
		t.Fatal(err)
	}
	g := ge.Group()
	if g.NumExprs() != 2 {
		t.Fatalf("group exprs = %d, want original select + pushed alternative", g.NumExprs())
	}
	// The alternative keeps the cross-side conjunct in a residual select
	// above the join, with per-side selects below it.
	alt := g.Exprs()[1]
	res, ok := alt.Op.(*ops.Select)
	if !ok {
		t.Fatalf("alternative root is %T, want residual *ops.Select", alt.Op)
	}
	if n := len(ops.Conjuncts(res.Pred)); n != 1 {
		t.Errorf("residual conjuncts = %d, want 1", n)
	}
	joinGroup := e.ctx.Memo.Group(alt.Children[0])
	var pushed *memo.GroupExpr
	for _, x := range joinGroup.Exprs() {
		if _, ok := x.Op.(*ops.Join); ok {
			pushed = x
		}
	}
	if pushed == nil {
		t.Fatal("no join under the residual select")
	}
	for i, side := range []string{"left", "right"} {
		childGroup := e.ctx.Memo.Group(pushed.Children[i])
		found := false
		for _, x := range childGroup.Exprs() {
			if _, ok := x.Op.(*ops.Select); ok {
				found = true
			}
		}
		if !found {
			t.Errorf("no select pushed onto the %s join input", side)
		}
	}

	// Termination: a select whose conjuncts all cross both sides moves
	// nothing, and applying the rule must not re-insert an identical tree.
	e2 := newEnv(t)
	join2 := ops.NewExpr(
		&ops.Join{Type: ops.InnerJoin, Pred: e2.eq("big", 0, "mid", 0)},
		ops.NewExpr(e2.gets["big"]), ops.NewExpr(e2.gets["mid"]))
	cross := ops.Eq(ops.NewIdent(e2.key("big", 1), base.TInt), ops.NewIdent(e2.key("mid", 1), base.TInt))
	ge2 := e2.insertJoin(t, ops.NewExpr(&ops.Select{Pred: cross}, join2))
	before := ge2.Group().NumExprs()
	if err := (&PushSelectThroughJoin{}).Apply(e2.ctx, ge2); err != nil {
		t.Fatal(err)
	}
	if after := ge2.Group().NumExprs(); after != before {
		t.Errorf("no-op pushdown grew the group: %d -> %d exprs", before, after)
	}
}

func TestPushSelectThroughGbAgg(t *testing.T) {
	e := newEnv(t)
	cnt := e.f.NewComputedColumn("cnt", base.TInt)
	agg := ops.NewExpr(
		&ops.GbAgg{GroupCols: []base.ColID{e.key("big", 0)},
			Aggs: []ops.AggElem{{Col: cnt, Agg: &ops.AggFunc{Name: "count"}}}},
		ops.NewExpr(e.gets["big"]))
	// One conjunct on the grouping column (moves) and one on the computed
	// aggregate output (stays above).
	pred := ops.And(
		ops.NewCmp(ops.CmpLt, ops.NewIdent(e.key("big", 0), base.TInt), ops.NewConst(base.NewInt(5))),
		ops.NewCmp(ops.CmpGt, ops.NewIdent(cnt.ID, base.TInt), ops.NewConst(base.NewInt(1))))
	ge := e.insertJoin(t, ops.NewExpr(&ops.Select{Pred: pred}, agg))

	rule := &PushSelectThroughGbAgg{}
	if !rule.Matches(ge) {
		t.Fatal("pushdown does not match a select with a predicate")
	}
	if err := rule.Apply(e.ctx, ge); err != nil {
		t.Fatal(err)
	}
	g := ge.Group()
	if g.NumExprs() != 2 {
		t.Fatalf("group exprs = %d, want original select + pushed alternative", g.NumExprs())
	}
	alt := g.Exprs()[1]
	res, ok := alt.Op.(*ops.Select)
	if !ok {
		t.Fatalf("alternative root is %T, want residual *ops.Select", alt.Op)
	}
	if n := len(ops.Conjuncts(res.Pred)); n != 1 {
		t.Errorf("residual conjuncts = %d, want the aggregate-output one", n)
	}
	aggGroup := e.ctx.Memo.Group(alt.Children[0])
	var pushedAgg *memo.GroupExpr
	for _, x := range aggGroup.Exprs() {
		if _, ok := x.Op.(*ops.GbAgg); ok {
			pushedAgg = x
		}
	}
	if pushedAgg == nil {
		t.Fatal("no aggregation under the residual select")
	}
	input := e.ctx.Memo.Group(pushedAgg.Children[0])
	foundSel := false
	for _, x := range input.Exprs() {
		if _, ok := x.Op.(*ops.Select); ok {
			foundSel = true
		}
	}
	if !foundSel {
		t.Error("no select pushed below the aggregation")
	}

	// A predicate entirely on aggregate outputs moves nothing and must not
	// re-insert an identical tree.
	e2 := newEnv(t)
	cnt2 := e2.f.NewComputedColumn("cnt", base.TInt)
	agg2 := ops.NewExpr(
		&ops.GbAgg{GroupCols: []base.ColID{e2.key("big", 0)},
			Aggs: []ops.AggElem{{Col: cnt2, Agg: &ops.AggFunc{Name: "count"}}}},
		ops.NewExpr(e2.gets["big"]))
	stuck := ops.NewCmp(ops.CmpGt, ops.NewIdent(cnt2.ID, base.TInt), ops.NewConst(base.NewInt(1)))
	ge2 := e2.insertJoin(t, ops.NewExpr(&ops.Select{Pred: stuck}, agg2))
	before := ge2.Group().NumExprs()
	if err := (&PushSelectThroughGbAgg{}).Apply(e2.ctx, ge2); err != nil {
		t.Fatal(err)
	}
	if after := ge2.Group().NumExprs(); after != before {
		t.Errorf("no-op pushdown grew the group: %d -> %d exprs", before, after)
	}
}

func TestSplitJoinPreds(t *testing.T) {
	e := newEnv(t)
	var lCols, rCols base.ColSet
	lCols.Add(e.key("big", 0))
	lCols.Add(e.key("big", 1))
	rCols.Add(e.key("mid", 0))
	rCols.Add(e.key("mid", 1))

	crossing := e.eq("big", 0, "mid", 0)
	leftOnly := ops.NewCmp(ops.CmpLt, ops.NewIdent(e.key("big", 1), base.TInt), ops.NewConst(base.NewInt(3)))
	outside := e.eq("big", 0, "small", 0)

	inner, outer, ok := splitJoinPreds([]ops.ScalarExpr{crossing, leftOnly, outside}, lCols, rCols)
	if !ok {
		t.Fatal("split rejected a predicate set with a crossing conjunct")
	}
	if n := len(ops.Conjuncts(inner)); n != 2 {
		t.Errorf("inner conjuncts = %d, want crossing + left-only", n)
	}
	if n := len(ops.Conjuncts(outer)); n != 1 {
		t.Errorf("outer conjuncts = %d, want the small-referencing one", n)
	}

	// Without a conjunct touching both sides the new join would be a cross
	// product; the split must refuse.
	if _, _, ok := splitJoinPreds([]ops.ScalarExpr{leftOnly, outside}, lCols, rCols); ok {
		t.Error("split accepted a set with no conjunct joining both sides")
	}
}

// TestRuleIDStability pins the generated dense IDs (declaration order in
// defs/rules.opt) and the closed namespace: a name that is not declared has
// no id.
func TestRuleIDStability(t *testing.T) {
	want := map[string]int{
		"JoinCommutativity":     RuleIDJoinCommutativity,
		"JoinAssociativity":     RuleIDJoinAssociativity,
		"PushSelectThroughJoin": RuleIDPushSelectThroughJoin,
		"Window2PhysicalWindow": RuleIDWindow2PhysicalWindow,
	}
	for name, id := range want {
		if got, ok := RuleIDFor(name); !ok || got != id {
			t.Errorf("RuleIDFor(%s) = %d, %v, want generated const %d", name, got, ok, id)
		}
		if RuleNameFor(id) != name {
			t.Errorf("RuleNameFor(%d) = %q, want %q", id, RuleNameFor(id), name)
		}
	}
	if RuleIDJoinCommutativity != 0 || RuleIDWindow2PhysicalWindow != NumGeneratedRuleIDs-1 {
		t.Errorf("ids are not dense over [0,%d)", NumGeneratedRuleIDs)
	}
	for _, name := range []string{"", "NoSuchRule", "joincommutativity"} {
		if id, ok := RuleIDFor(name); ok {
			t.Errorf("RuleIDFor(%q) = %d, true; undeclared names must not resolve", name, id)
		}
	}
	if RuleNameFor(-1) != "" || RuleNameFor(NumGeneratedRuleIDs) != "" {
		t.Error("RuleNameFor resolved an out-of-range id")
	}
}
