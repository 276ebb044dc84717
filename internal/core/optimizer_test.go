package core

import (
	"strings"
	"testing"

	"orca/internal/base"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/props"
)

// paperExample builds the running example of paper §4.1:
//
//	SELECT T1.a FROM T1, T2 WHERE T1.a = T2.b ORDER BY T1.a;
//
// with T1 distributed Hashed(T1.a) and T2 distributed Hashed(T2.a).
func paperExample(t *testing.T) (*Query, *md.ColumnFactory) {
	t.Helper()
	p := md.NewMemProvider()
	md.Build(p, md.TableSpec{
		Name:   "T1",
		Rows:   100000,
		Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 50000, Lo: 0, Hi: 50000},
			{Name: "b", Type: base.TInt, NDV: 1000, Lo: 0, Hi: 1000},
		},
	})
	md.Build(p, md.TableSpec{
		Name:   "T2",
		Rows:   80000,
		Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 80000, Lo: 0, Hi: 80000},
			{Name: "b", Type: base.TInt, NDV: 40000, Lo: 0, Hi: 50000},
		},
	})

	cache := md.NewCache(&gpos.MemoryAccountant{})
	acc := md.NewAccessor(cache, p)
	f := md.NewColumnFactory()

	t1, err := acc.RelationByName("T1")
	if err != nil {
		t.Fatalf("lookup T1: %v", err)
	}
	t2, err := acc.RelationByName("T2")
	if err != nil {
		t.Fatalf("lookup T2: %v", err)
	}

	get := func(rel *md.Relation) *ops.Get {
		cols := make([]*md.ColRef, len(rel.Columns))
		for i, c := range rel.Columns {
			cols[i] = f.NewTableColumn(rel.Name+"."+c.Name, c.Type, rel.Mdid, i)
		}
		return &ops.Get{Alias: rel.Name, Rel: rel, Cols: cols}
	}
	g1, g2 := get(t1), get(t2)

	join := ops.NewExpr(
		&ops.Join{Type: ops.InnerJoin, Pred: ops.Eq(
			ops.NewIdent(g1.Cols[0].ID, base.TInt),
			ops.NewIdent(g2.Cols[1].ID, base.TInt),
		)},
		ops.NewExpr(g1),
		ops.NewExpr(g2),
	)

	return &Query{
		Tree:     join,
		Order:    props.MakeOrder(g1.Cols[0].ID),
		OutCols:  []base.ColID{g1.Cols[0].ID},
		OutNames: []string{"a"},
		Factory:  f,
		Accessor: acc,
	}, f
}

func TestOptimizePaperExample(t *testing.T) {
	q, f := paperExample(t)
	res, err := Optimize(q, DefaultConfig(16))
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if res.Plan == nil {
		t.Fatal("no plan")
	}
	plan := Explain(res.Plan, f)
	t.Logf("plan (cost=%.0f, %d groups, %d exprs, %d rules):\n%s",
		res.Cost, res.Groups, res.GroupExprs, res.RulesFired, plan)

	// The optimal plan for the paper's example co-locates via a motion on
	// T2.b (T1 is already distributed on the join key), hash-joins, and
	// delivers the singleton sorted requirement via sort + gather-merge (or
	// gather + sort).
	if !strings.Contains(plan, "HashJoin") {
		t.Errorf("expected a hash join in:\n%s", plan)
	}
	if !strings.Contains(plan, "Redistribute") && !strings.Contains(plan, "Broadcast") {
		t.Errorf("expected a motion aligning T2 in:\n%s", plan)
	}
	if !strings.Contains(plan, "Sort") && !strings.Contains(plan, "GatherMerge") {
		t.Errorf("expected order enforcement in:\n%s", plan)
	}
	if res.Plan.Phys.Dist.Kind != props.DistSingleton {
		t.Errorf("root must deliver Singleton, got %s", res.Plan.Phys.Dist)
	}
	if !res.Plan.Phys.Order.Satisfies(q.Order) {
		t.Errorf("root must deliver %s, got %s", q.Order, res.Plan.Phys.Order)
	}
}

func TestOptimizeParallelMatchesSequential(t *testing.T) {
	q1, _ := paperExample(t)
	cfg := DefaultConfig(16)
	seq, err := Optimize(q1, cfg)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	q2, _ := paperExample(t)
	par, err := Optimize(q2, cfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if seq.Cost != par.Cost {
		t.Errorf("parallel best cost %v differs from sequential %v", par.Cost, seq.Cost)
	}
}
