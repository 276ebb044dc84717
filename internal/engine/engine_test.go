package engine

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"orca/internal/base"
	"orca/internal/md"
	"orca/internal/ops"
)

// fixture builds a 4-segment cluster with one hash table, one replicated
// table and one partitioned table, with hand-written rows.
type fixture struct {
	c    *Cluster
	f    *md.ColumnFactory
	rels map[string]*md.Relation
	cols map[string][]*md.ColRef
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	p := md.NewMemProvider()
	fx := &fixture{
		f:    md.NewColumnFactory(),
		rels: map[string]*md.Relation{},
		cols: map[string][]*md.ColRef{},
	}
	mk := func(spec md.TableSpec, rows []Row) {
		rel := md.Build(p, spec)
		fx.rels[spec.Name] = rel
		if fx.c == nil {
			fx.c = NewCluster(4, p)
		}
		if err := fx.c.CreateTable(rel, rows); err != nil {
			t.Fatal(err)
		}
	}
	i := func(v int64) base.Datum { return base.NewInt(v) }

	mk(md.TableSpec{
		Name: "t", Rows: 8, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "k", Type: base.TInt, NDV: 8, Lo: 0, Hi: 8},
			{Name: "g", Type: base.TInt, NDV: 2, Lo: 0, Hi: 2},
			{Name: "v", Type: base.TInt, NDV: 8, Lo: 0, Hi: 80},
		},
	}, []Row{
		{i(0), i(0), i(10)}, {i(1), i(1), i(20)}, {i(2), i(0), i(30)}, {i(3), i(1), i(40)},
		{i(4), i(0), i(50)}, {i(5), i(1), i(60)}, {i(6), i(0), i(70)}, {i(7), i(1), base.Null},
	})
	mk(md.TableSpec{
		Name: "dim", Rows: 3, Policy: md.DistReplicated,
		Cols: []md.ColSpec{
			{Name: "id", Type: base.TInt, NDV: 3, Lo: 0, Hi: 3},
			{Name: "name", Type: base.TString, NDV: 3, Lo: 0, Hi: 3},
		},
	}, []Row{
		{i(0), base.NewString("zero")}, {i(1), base.NewString("one")}, {i(2), base.NewString("two")},
	})
	mk(md.TableSpec{
		Name: "pt", Rows: 6, Policy: md.DistHash, DistCols: []int{0},
		PartCol: 1,
		Parts: []md.Partition{
			{Name: "lo", Lo: i(0), Hi: i(10)},
			{Name: "hi", Lo: i(10), Hi: i(21)},
		},
		Cols: []md.ColSpec{
			{Name: "id", Type: base.TInt, NDV: 6, Lo: 0, Hi: 6},
			{Name: "d", Type: base.TInt, NDV: 6, Lo: 0, Hi: 21},
		},
	}, []Row{
		{i(0), i(1)}, {i(1), i(5)}, {i(2), i(9)}, {i(3), i(12)}, {i(4), i(18)}, {i(5), i(20)},
	})
	return fx
}

// scan builds a Scan node over a fixture table, registering fresh colrefs.
func (fx *fixture) scan(name string, filter ops.ScalarExpr) (*ops.Expr, []*md.ColRef) {
	rel := fx.rels[name]
	cols := make([]*md.ColRef, len(rel.Columns))
	for i, c := range rel.Columns {
		cols[i] = fx.f.NewTableColumn(c.Name, c.Type, rel.Mdid, i)
	}
	return ops.NewExpr(&ops.Scan{Alias: name, Rel: rel, Cols: cols, Filter: filter}), cols
}

func run(t testing.TB, fx *fixture, plan *ops.Expr) *Result {
	t.Helper()
	res, err := fx.c.Execute(plan, Options{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res
}

func rowsAsStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func TestScanAndGather(t *testing.T) {
	fx := newFixture(t)
	scan, _ := fx.scan("t", nil)
	res := run(t, fx, ops.NewExpr(&ops.Gather{}, scan))
	if len(res.Rows) != 8 {
		t.Errorf("rows = %d, want 8", len(res.Rows))
	}
	if res.Stats.NetTuples == 0 {
		t.Error("gather moved no tuples")
	}
}

func TestScanFilterPushdown(t *testing.T) {
	fx := newFixture(t)
	rel := fx.rels["t"]
	cols := []*md.ColRef{
		fx.f.NewTableColumn("k", base.TInt, rel.Mdid, 0),
		fx.f.NewTableColumn("g", base.TInt, rel.Mdid, 1),
		fx.f.NewTableColumn("v", base.TInt, rel.Mdid, 2),
	}
	scan := ops.NewExpr(&ops.Scan{Rel: rel, Cols: cols, Filter: ops.NewCmp(ops.CmpGt,
		ops.NewIdent(cols[0].ID, base.TInt), ops.NewConst(base.NewInt(4)))})
	res := run(t, fx, ops.NewExpr(&ops.Gather{}, scan))
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3 (k > 4)", len(res.Rows))
	}
}

func TestReplicatedScanYieldsOneLogicalCopy(t *testing.T) {
	fx := newFixture(t)
	scan, _ := fx.scan("dim", nil)
	res := run(t, fx, ops.NewExpr(&ops.Gather{}, scan))
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3 (no duplicates from replication)", len(res.Rows))
	}
}

func TestPartitionPruning(t *testing.T) {
	fx := newFixture(t)
	rel := fx.rels["pt"]
	cols := []*md.ColRef{
		fx.f.NewTableColumn("id", base.TInt, rel.Mdid, 0),
		fx.f.NewTableColumn("d", base.TInt, rel.Mdid, 1),
	}
	full := ops.NewExpr(&ops.Scan{Rel: rel, Cols: cols})
	res := run(t, fx, ops.NewExpr(&ops.Gather{}, full))
	if len(res.Rows) != 6 {
		t.Fatalf("full scan rows = %d", len(res.Rows))
	}
	fullOps := res.Stats.TupleOps

	dLt10 := ops.NewCmp(ops.CmpLt, ops.NewIdent(cols[1].ID, base.TInt), ops.NewConst(base.NewInt(10)))
	pruned := ops.NewExpr(&ops.Scan{Rel: rel, Cols: cols, Filter: dLt10, Pruned: true})
	res2 := run(t, fx, ops.NewExpr(&ops.Gather{}, pruned))
	if len(res2.Rows) != 3 {
		t.Errorf("pruned scan rows = %d, want 3", len(res2.Rows))
	}
	if res2.Stats.TupleOps >= fullOps {
		t.Errorf("pruned scan did not reduce work: %d vs %d", res2.Stats.TupleOps, fullOps)
	}
}

func TestHashJoinTypes(t *testing.T) {
	fx := newFixture(t)
	// Outer: t (8 rows, g in {0,1}); inner: dim (ids 0,1,2). Join t.g = dim.id.
	tScan, tCols := fx.scan("t", nil)
	dScan, dCols := fx.scan("dim", nil)
	mk := func(jt ops.JoinType) *ops.Expr {
		j := &ops.HashJoin{Type: jt,
			LeftKeys:  []base.ColID{tCols[1].ID},
			RightKeys: []base.ColID{dCols[0].ID}}
		return ops.NewExpr(&ops.Gather{}, ops.NewExpr(j, tScan, dScan))
	}
	if res := run(t, fx, mk(ops.InnerJoin)); len(res.Rows) != 8 {
		t.Errorf("inner join rows = %d, want 8", len(res.Rows))
	}
	if res := run(t, fx, mk(ops.SemiJoin)); len(res.Rows) != 8 {
		t.Errorf("semi join rows = %d, want 8", len(res.Rows))
	}
	if res := run(t, fx, mk(ops.AntiJoin)); len(res.Rows) != 0 {
		t.Errorf("anti join rows = %d, want 0", len(res.Rows))
	}

	// Join on t.k = dim.id: only k in {0,1,2} match.
	mkK := func(jt ops.JoinType) *ops.Expr {
		j := &ops.HashJoin{Type: jt,
			LeftKeys:  []base.ColID{tCols[0].ID},
			RightKeys: []base.ColID{dCols[0].ID}}
		return ops.NewExpr(&ops.Gather{}, ops.NewExpr(j, tScan, dScan))
	}
	if res := run(t, fx, mkK(ops.InnerJoin)); len(res.Rows) != 3 {
		t.Errorf("selective inner join rows = %d, want 3", len(res.Rows))
	}
	res := run(t, fx, mkK(ops.LeftJoin))
	if len(res.Rows) != 8 {
		t.Errorf("left join rows = %d, want 8", len(res.Rows))
	}
	nulls := 0
	for _, r := range res.Rows {
		if r[3].IsNull() {
			nulls++
		}
	}
	if nulls != 5 {
		t.Errorf("left join null-extended rows = %d, want 5", nulls)
	}
	if res := run(t, fx, mkK(ops.AntiJoin)); len(res.Rows) != 5 {
		t.Errorf("anti join rows = %d, want 5", len(res.Rows))
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	fx := newFixture(t)
	// t.v has one NULL; self-join t.v = t.v must not match NULL with NULL.
	s1, c1 := fx.scan("t", nil)
	s2, c2 := fx.scan("t", nil)
	j := &ops.HashJoin{Type: ops.InnerJoin,
		LeftKeys:  []base.ColID{c1[2].ID},
		RightKeys: []base.ColID{c2[2].ID}}
	// Co-locate both sides on the join key first.
	l := ops.NewExpr(&ops.Redistribute{Cols: []base.ColID{c1[2].ID}}, s1)
	r := ops.NewExpr(&ops.Redistribute{Cols: []base.ColID{c2[2].ID}}, s2)
	res := run(t, fx, ops.NewExpr(&ops.Gather{}, ops.NewExpr(j, l, r)))
	if len(res.Rows) != 7 {
		t.Errorf("self join rows = %d, want 7 (NULL keys never match)", len(res.Rows))
	}
}

func TestNLJoinNonEqui(t *testing.T) {
	fx := newFixture(t)
	tScan, tCols := fx.scan("t", nil)
	dScan, dCols := fx.scan("dim", nil)
	pred := ops.NewCmp(ops.CmpLt, ops.NewIdent(tCols[1].ID, base.TInt), ops.NewIdent(dCols[0].ID, base.TInt))
	j := ops.NewExpr(&ops.NLJoin{Type: ops.InnerJoin, Pred: pred},
		tScan, ops.NewExpr(&ops.Broadcast{}, dScan))
	res := run(t, fx, ops.NewExpr(&ops.Gather{}, j))
	// g=0 rows (4) match ids {1,2} → 8; g=1 rows (4) match {2} → 4.
	if len(res.Rows) != 12 {
		t.Errorf("non-equi NL join rows = %d, want 12", len(res.Rows))
	}
}

func TestRedistributeThenGatherPreservesMultiset(t *testing.T) {
	fx := newFixture(t)
	f := func(col uint8) bool {
		scanA, cols := fx.scan("t", nil)
		plain := run(t, fx, ops.NewExpr(&ops.Gather{}, scanA))
		scanB, colsB := fx.scan("t", nil)
		red := ops.NewExpr(&ops.Redistribute{Cols: []base.ColID{colsB[int(col)%3].ID}}, scanB)
		moved := run(t, fx, ops.NewExpr(&ops.Gather{}, red))
		_ = cols
		a, b := rowsAsStrings(plain), rowsAsStrings(moved)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBroadcastReplicates(t *testing.T) {
	fx := newFixture(t)
	scan, _ := fx.scan("t", nil)
	b := ops.NewExpr(&ops.Broadcast{}, scan)
	res := run(t, fx, ops.NewExpr(&ops.Gather{}, b))
	// Gather of a replicated result reads one logical copy.
	if len(res.Rows) != 8 {
		t.Errorf("rows = %d, want 8", len(res.Rows))
	}
	if res.Stats.NetTuples < 8*4 {
		t.Errorf("broadcast moved %d tuples, want >= 32 (8 rows × 4 segments)", res.Stats.NetTuples)
	}
}
