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
		"ExpandNAryJoinDP":      RuleIDExpandNAryJoinDP,
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
