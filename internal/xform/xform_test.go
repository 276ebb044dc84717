package xform

import (
	"testing"

	"orca/internal/base"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/stats"
)

// env builds a memo + xform context over a three-table catalog with very
// different sizes, so cardinality-driven ordering has a clear winner.
type env struct {
	ctx  *Context
	f    *md.ColumnFactory
	gets map[string]*ops.Get
}

func newEnv(t testing.TB) *env {
	t.Helper()
	p := md.NewMemProvider()
	sizes := map[string]float64{"big": 100000, "mid": 1000, "small": 10}
	f := md.NewColumnFactory()
	gets := map[string]*ops.Get{}
	for name, rows := range sizes {
		rel := md.Build(p, md.TableSpec{
			Name: name, Rows: rows, Policy: md.DistHash, DistCols: []int{0},
			Cols: []md.ColSpec{
				{Name: "k", Type: base.TInt, NDV: 10, Lo: 0, Hi: 10},
				{Name: "v", Type: base.TInt, NDV: rows / 2, Lo: 0, Hi: rows / 2},
			},
		})
		gets[name] = &ops.Get{Alias: name, Rel: rel, Cols: []*md.ColRef{
			f.NewTableColumn(name+".k", base.TInt, rel.Mdid, 0),
			f.NewTableColumn(name+".v", base.TInt, rel.Mdid, 1),
		}}
	}
	acc := md.NewAccessor(md.NewCache(&gpos.MemoryAccountant{}), p)
	m := memo.New(&gpos.OwnedAccountant{})
	return &env{
		ctx: &Context{
			Memo: m, Stats: stats.NewContext(acc), Accessor: acc,
			ColFactory: f, Segments: 4,
		},
		f:    f,
		gets: gets,
	}
}

func (e *env) key(name string, ord int) base.ColID { return e.gets[name].Cols[ord].ID }

// insertNAry inserts NAryJoin(big, mid, small) with a chain of predicates.
func (e *env) insertNAry(t testing.TB) *memo.GroupExpr {
	t.Helper()
	tree := ops.NewExpr(&ops.NAryJoin{Preds: []ops.ScalarExpr{
		ops.Eq(ops.NewIdent(e.key("big", 0), base.TInt), ops.NewIdent(e.key("mid", 0), base.TInt)),
		ops.Eq(ops.NewIdent(e.key("mid", 0), base.TInt), ops.NewIdent(e.key("small", 0), base.TInt)),
	}},
		ops.NewExpr(e.gets["big"]), ops.NewExpr(e.gets["mid"]), ops.NewExpr(e.gets["small"]))
	root, err := e.ctx.Memo.Insert(tree)
	if err != nil {
		t.Fatal(err)
	}
	return e.ctx.Memo.Group(root).Exprs()[0]
}

func TestJoinCommutativity(t *testing.T) {
	e := newEnv(t)
	tree := ops.NewExpr(
		&ops.Join{Type: ops.InnerJoin,
			Pred: ops.Eq(ops.NewIdent(e.key("big", 0), base.TInt), ops.NewIdent(e.key("mid", 0), base.TInt))},
		ops.NewExpr(e.gets["big"]), ops.NewExpr(e.gets["mid"]))
	root, _ := e.ctx.Memo.Insert(tree)
	g := e.ctx.Memo.Group(root)
	ge := g.Exprs()[0]
	rule := &JoinCommutativity{}
	if !rule.Matches(ge) {
		t.Fatal("commutativity does not match an inner join")
	}
	if err := rule.Apply(e.ctx, ge); err != nil {
		t.Fatal(err)
	}
	if len(g.Exprs()) != 2 {
		t.Fatalf("group exprs = %d, want 2", len(g.Exprs()))
	}
	sw := g.Exprs()[1]
	if sw.Children[0] != ge.Children[1] || sw.Children[1] != ge.Children[0] {
		t.Error("children not swapped")
	}
	// Applying to the swapped expression regenerates the original, which
	// duplicate detection absorbs.
	if err := rule.Apply(e.ctx, sw); err != nil {
		t.Fatal(err)
	}
	if len(g.Exprs()) != 2 {
		t.Errorf("duplicate detection failed: %d exprs", len(g.Exprs()))
	}
}

func TestExpandNAryJoinDPPutsSmallFirst(t *testing.T) {
	e := newEnv(t)
	ge := e.insertNAry(t)
	if err := (&ExpandNAryJoinDP{}).Apply(e.ctx, ge); err != nil {
		t.Fatal(err)
	}
	g := ge.Group()
	if len(g.Exprs()) < 2 {
		t.Fatal("DP emitted nothing")
	}
	// The DP tree must not start by joining big with small (disconnected) —
	// and the chain ordering should avoid the big⋈mid-first plan when
	// mid⋈small is far smaller.
	join := g.Exprs()[1]
	if _, ok := join.Op.(*ops.Join); !ok {
		t.Fatalf("expansion produced %T", join.Op)
	}
	// Count the memo growth: new join groups created.
	if e.ctx.Memo.NumGroups() < 4 {
		t.Error("no intermediate join groups created")
	}
}

func TestExpandNAryJoinGreedyAndLeftDeep(t *testing.T) {
	e := newEnv(t)
	ge := e.insertNAry(t)
	before := ge.Group().NumExprs()
	if err := (&ExpandNAryJoinGreedy{}).Apply(e.ctx, ge); err != nil {
		t.Fatal(err)
	}
	if err := (&ExpandNAryJoinLeftDeep{}).Apply(e.ctx, ge); err != nil {
		t.Fatal(err)
	}
	after := ge.Group().NumExprs()
	if after <= before {
		t.Errorf("expansions added nothing: %d -> %d", before, after)
	}
}

func TestGet2ScanSetsBaseRows(t *testing.T) {
	e := newEnv(t)
	root, _ := e.ctx.Memo.Insert(ops.NewExpr(e.gets["big"]))
	ge := e.ctx.Memo.Group(root).Exprs()[0]
	if err := (&Get2Scan{}).Apply(e.ctx, ge); err != nil {
		t.Fatal(err)
	}
	var scan *ops.Scan
	for _, x := range e.ctx.Memo.Group(root).Exprs() {
		if s, ok := x.Op.(*ops.Scan); ok {
			scan = s
		}
	}
	if scan == nil {
		t.Fatal("no scan produced")
	}
	if scan.BaseRows != 100000 {
		t.Errorf("BaseRows = %g, want 100000", scan.BaseRows)
	}
}

func TestSelect2ScanMergesFilter(t *testing.T) {
	e := newEnv(t)
	pred := ops.NewCmp(ops.CmpLt, ops.NewIdent(e.key("big", 1), base.TInt), ops.NewConst(base.NewInt(10)))
	tree := ops.NewExpr(&ops.Select{Pred: pred}, ops.NewExpr(e.gets["big"]))
	root, _ := e.ctx.Memo.Insert(tree)
	ge := e.ctx.Memo.Group(root).Exprs()[0]
	if err := (&Select2Scan{}).Apply(e.ctx, ge); err != nil {
		t.Fatal(err)
	}
	var scan *ops.Scan
	for _, x := range e.ctx.Memo.Group(root).Exprs() {
		if s, ok := x.Op.(*ops.Scan); ok {
			scan = s
		}
	}
	if scan == nil || scan.Filter == nil {
		t.Fatal("filtering scan not produced")
	}
}

func TestTwoStageAggRewritesCount(t *testing.T) {
	e := newEnv(t)
	cnt := e.f.NewComputedColumn("cnt", base.TInt)
	agg := &ops.GbAgg{GroupCols: []base.ColID{e.key("big", 0)},
		Aggs: []ops.AggElem{{Col: cnt, Agg: &ops.AggFunc{Name: "count"}}}}
	root, _ := e.ctx.Memo.Insert(ops.NewExpr(agg, ops.NewExpr(e.gets["big"])))
	ge := e.ctx.Memo.Group(root).Exprs()[0]
	rule := &GbAgg2TwoStageAgg{}
	if !rule.Matches(ge) {
		t.Fatal("rule does not match plain count")
	}
	if err := rule.Apply(e.ctx, ge); err != nil {
		t.Fatal(err)
	}
	var global *ops.HashAgg
	for _, x := range e.ctx.Memo.Group(root).Exprs() {
		if a, ok := x.Op.(*ops.HashAgg); ok && a.Mode == ops.AggGlobal {
			global = a
		}
	}
	if global == nil {
		t.Fatal("no global stage")
	}
	if global.Aggs[0].Agg.Name != "sum" {
		t.Errorf("global count combine = %q, want sum of partial counts", global.Aggs[0].Agg.Name)
	}
	// DISTINCT blocks the split.
	d := &ops.GbAgg{GroupCols: agg.GroupCols,
		Aggs: []ops.AggElem{{Col: cnt, Agg: &ops.AggFunc{Name: "count", Distinct: true,
			Arg: ops.NewIdent(e.key("big", 1), base.TInt)}}}}
	root2, _ := e.ctx.Memo.Insert(ops.NewExpr(d, ops.NewExpr(e.gets["big"])))
	if rule.Matches(e.ctx.Memo.Group(root2).Exprs()[0]) {
		t.Error("two-stage split offered for DISTINCT aggregate")
	}
}

func TestDefaultRulesWellFormed(t *testing.T) {
	rules := DefaultRules()
	names := map[string]bool{}
	expl, impl := 0, 0
	for _, r := range rules {
		if names[r.Name()] {
			t.Errorf("duplicate rule name %q", r.Name())
		}
		names[r.Name()] = true
		switch r.Kind() {
		case Exploration:
			expl++
		case Implementation:
			impl++
		}
	}
	if expl < 4 || impl < 10 {
		t.Errorf("rule inventory thin: %d exploration, %d implementation", expl, impl)
	}
}
