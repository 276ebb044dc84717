package engine

import (
	"fmt"
	"testing"

	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/dxl"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/props"
)

// legsFixture drives the generated TestOperatorLegs (legs.gen_test.go): it
// supplies one sample value per defs/*.opt field type and one sample per
// hand-written scalar operator, and runs the legs of each operator kind.
// Samples are built fresh on every call, so two constructions of one
// operator share no pointers.
type legsFixture struct {
	t   *testing.T
	rel *md.Relation
	acc *md.Accessor
}

func newLegsFixture(t *testing.T) *legsFixture {
	p := md.NewMemProvider()
	rel := md.Build(p, md.TableSpec{
		Name: "t", Rows: 100, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 100, Lo: 0, Hi: 100},
			{Name: "b", Type: base.TInt, NDV: 10, Lo: 0, Hi: 10},
		},
	})
	return &legsFixture{t: t, rel: rel, acc: md.NewAccessor(md.NewCache(&gpos.MemoryAccountant{}), p)}
}

// logical takes a logical operator, given arity children, through the DXL
// query round trip: the parsed operator must be ParamEqual with an equal
// ParamHash.
func (c *legsFixture) logical(arity int, op ops.Operator) {
	c.t.Helper()
	if arity < 0 {
		arity = 2
	}
	kids := make([]*ops.Expr, arity)
	for i := range kids {
		kids[i] = c.get()
	}
	back := c.roundTrip(ops.NewExpr(op, kids...))
	if back == nil {
		return
	}
	if !op.ParamEqual(back.Op) || op.ParamHash() != back.Op.ParamHash() || len(back.Children) != arity {
		c.t.Errorf("%s: the DXL round trip changed it: %s -> %s", op.Name(), ops.Describe(op), ops.Describe(back.Op))
	}
}

// scalar takes a scalar operator through the DXL round trip (as a Select
// predicate; it must re-serialize identically) and, unless normalization
// removes the operator before plan time, through engine evaluation.
func (c *legsFixture) scalar(x ops.ScalarExpr, evaluates bool) {
	c.t.Helper()
	back := c.roundTrip(ops.NewExpr(&ops.Select{Pred: x}, c.get()))
	if back == nil {
		return
	}
	pred := back.Op.(*ops.Select).Pred
	if got, want := dxl.SerializeScalar(pred).Render(), dxl.SerializeScalar(x).Render(); got != want {
		c.t.Errorf("%T: the DXL round trip changed it:\n%s\n->\n%s", x, want, got)
	}
	if !evaluates {
		return
	}
	ec := &evalCtx{sch: schemaOf([]base.ColID{1, 2})}
	if _, err := ec.eval(x, Row{base.NewInt(1), base.NewInt(2)}); err != nil &&
		err.Error() == fmt.Sprintf("engine: cannot evaluate %T at runtime", x) {
		c.t.Errorf("%T: the engine cannot evaluate it", x)
	}
}

// physical checks that two constructions of an operator from equal values
// are ParamEqual with equal ParamHash and render the same DXL plan (one
// construction for pointer-identity operators).
func (c *legsFixture) physical(ptrIdentity bool, build func() ops.Operator) {
	c.t.Helper()
	a, b := build(), build()
	if ptrIdentity {
		b = a
	}
	if !a.ParamEqual(b) || a.ParamHash() != b.ParamHash() ||
		dxl.PlanFingerprint(ops.NewExpr(a)) != dxl.PlanFingerprint(ops.NewExpr(b)) {
		c.t.Errorf("%s: equal constructions differ in ParamEqual, ParamHash or DXL", a.Name())
	}
}

// scalarSlots takes an operator through the plan cache's scalar-slot walk,
// ops.RewriteOpScalars: rewriting every slot to a distinct marker must
// change an operator that declares slots and leave one without them alone,
// and rewriting the markers back must give an operator ParamEqual with the
// original. A pointer-identity operator must be refused.
func (c *legsFixture) scalarSlots(slots, ptrIdentity bool, op ops.Operator) {
	c.t.Helper()
	const first = 1000
	var seen []ops.ScalarExpr
	marked, ok := ops.RewriteOpScalars(op, func(s ops.ScalarExpr) ops.ScalarExpr {
		seen = append(seen, s)
		return ops.NewParam(first + len(seen) - 1)
	})
	if ok == ptrIdentity {
		c.t.Errorf("%s: RewriteOpScalars reports ok=%v for a pointer-identity=%v operator", op.Name(), ok, ptrIdentity)
		return
	}
	if ptrIdentity {
		return
	}
	if slots != (len(seen) > 0) || slots == marked.ParamEqual(op) {
		c.t.Errorf("%s: the walk visited %d slots and changed the operator=%v; it declares slots=%v",
			op.Name(), len(seen), !marked.ParamEqual(op), slots)
		return
	}
	back, _ := ops.RewriteOpScalars(marked, func(s ops.ScalarExpr) ops.ScalarExpr {
		return seen[s.(*ops.Param).Ord-first]
	})
	if !back.ParamEqual(op) || back.ParamHash() != op.ParamHash() {
		c.t.Errorf("%s: rewriting the markers back changed it: %s -> %s", op.Name(), ops.Describe(op), ops.Describe(back))
	}
}

// roundTrip serializes a logical tree as a DXL query, parses it back and
// returns the parsed tree, or nil after reporting an error.
func (c *legsFixture) roundTrip(tree *ops.Expr) *ops.Expr {
	c.t.Helper()
	doc := dxl.SerializeQuery(&core.Query{Tree: tree}).Render()
	root, err := dxl.ParseXML(doc)
	if err == nil {
		var q *core.Query
		if q, err = dxl.ParseQuery(root, c.acc, md.NewColumnFactory()); err == nil {
			return q.Tree
		}
	}
	c.t.Errorf("%s: DXL round trip: %v\n%s", tree.Op.Name(), err, doc)
	return nil
}

func (c *legsFixture) get() *ops.Expr {
	return ops.NewExpr(&ops.Get{Rel: c.rel, Cols: c.sampleColRefs()})
}

func computed(id base.ColID, name string) *md.ColRef {
	return &md.ColRef{ID: id, Name: name, Type: base.TInt, Ordinal: -1, Computed: true}
}

// One sample per defs/*.opt field type.

func (c *legsFixture) sampleString() string                 { return "s" }
func (c *legsFixture) sampleBool() bool                     { return true }
func (c *legsFixture) sampleInt() int                       { return 2 }
func (c *legsFixture) sampleInt64() int64                   { return 3 }
func (c *legsFixture) sampleFloat() float64                 { return 1.5 }
func (c *legsFixture) sampleJoinType() ops.JoinType         { return ops.LeftJoin }
func (c *legsFixture) sampleAggMode() ops.AggMode           { return ops.AggLocal }
func (c *legsFixture) sampleSubqueryKind() ops.SubqueryKind { return ops.SubExists }
func (c *legsFixture) sampleScalar() ops.ScalarExpr         { return c.sampleCmp() }
func (c *legsFixture) sampleScalarList() []ops.ScalarExpr   { return []ops.ScalarExpr{c.sampleCmp()} }
func (c *legsFixture) sampleRelation() *md.Relation         { return c.rel }
func (c *legsFixture) sampleColID() base.ColID              { return 1 }
func (c *legsFixture) sampleColIDs() []base.ColID           { return []base.ColID{1, 2} }
func (c *legsFixture) sampleColIDLists() [][]base.ColID     { return [][]base.ColID{{1}, {2}} }
func (c *legsFixture) sampleOrderSpec() props.OrderSpec     { return props.MakeOrder(1) }
func (c *legsFixture) sampleColIDMap() map[base.ColID]base.ColID {
	return map[base.ColID]base.ColID{1: 3}
}
func (c *legsFixture) samplePlanExpr() *ops.Expr { return c.get() }

func (c *legsFixture) sampleIndex() *md.Index {
	return &md.Index{Mdid: md.NewMDId(999), Name: "t_a", RelMdid: c.rel.Mdid, KeyCols: []int{0}}
}

func (c *legsFixture) sampleColRefs() []*md.ColRef {
	refs := make([]*md.ColRef, len(c.rel.Columns))
	for i, col := range c.rel.Columns {
		refs[i] = &md.ColRef{ID: base.ColID(i + 1), Name: col.Name, Type: col.Type, RelMdid: c.rel.Mdid, Ordinal: i}
	}
	return refs
}

func (c *legsFixture) sampleProjElems() []ops.ProjElem {
	return []ops.ProjElem{{Col: computed(3, "p"), Expr: c.sampleBinOp()}}
}

func (c *legsFixture) sampleAggElems() []ops.AggElem {
	return []ops.AggElem{{Col: computed(4, "s"), Agg: &ops.AggFunc{Name: "sum", Arg: c.sampleIdent()}}}
}

func (c *legsFixture) sampleWinElems() []ops.WinElem {
	return []ops.WinElem{
		{Col: computed(5, "r"), Fn: &ops.WinFunc{Name: "rank"}},
		{Col: computed(6, "w"), Fn: &ops.WinFunc{Name: "sum", Arg: c.sampleIdent()}},
	}
}

// One sample per hand-written scalar operator.

func (c *legsFixture) sampleIdent() *ops.Ident { return ops.NewIdent(1, base.TInt) }
func (c *legsFixture) sampleConst() *ops.Const { return ops.NewConst(base.NewInt(5)) }
func (c *legsFixture) sampleParam() *ops.Param { return ops.NewParam(0) }
func (c *legsFixture) sampleCmp() *ops.Cmp {
	return ops.NewCmp(ops.CmpLt, c.sampleIdent(), c.sampleConst())
}
func (c *legsFixture) sampleBoolOp() *ops.BoolOp {
	return &ops.BoolOp{Kind: ops.BoolOr, Args: []ops.ScalarExpr{c.sampleCmp(), c.sampleIsNull()}}
}
func (c *legsFixture) sampleBinOp() *ops.BinOp {
	return &ops.BinOp{Op: "+", L: c.sampleIdent(), R: c.sampleConst()}
}
func (c *legsFixture) sampleFunc() *ops.Func {
	return &ops.Func{Name: "coalesce", Args: []ops.ScalarExpr{c.sampleIdent(), c.sampleConst()}}
}
func (c *legsFixture) sampleCase() *ops.Case {
	return &ops.Case{Whens: []ops.CaseWhen{{When: c.sampleCmp(), Then: c.sampleConst()}}, Else: c.sampleIdent()}
}
func (c *legsFixture) sampleIsNull() *ops.IsNull { return &ops.IsNull{Arg: c.sampleIdent()} }
func (c *legsFixture) sampleInList() *ops.InList {
	return &ops.InList{Arg: c.sampleIdent(), Vals: []ops.ScalarExpr{c.sampleConst()}}
}
func (c *legsFixture) sampleSubquery() *ops.Subquery {
	return &ops.Subquery{Kind: ops.SubExists, Input: c.get()}
}
