package core_test

import (
	"strings"
	"testing"

	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/dxl"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/sql"
	"orca/internal/tpcds"
)

func normCatalog(t testing.TB) (*md.Accessor, *md.ColumnFactory) {
	t.Helper()
	p := md.NewMemProvider()
	for _, name := range []string{"r", "s", "u"} {
		md.Build(p, md.TableSpec{
			Name: name, Rows: 100, Policy: md.DistHash, DistCols: []int{0},
			Cols: []md.ColSpec{
				{Name: "k", Type: base.TInt, NDV: 100, Lo: 0, Hi: 100},
				{Name: "v", Type: base.TInt, NDV: 10, Lo: 0, Hi: 10},
			},
		})
	}
	return md.NewAccessor(md.NewCache(&gpos.MemoryAccountant{}), p), md.NewColumnFactory()
}

func normalize(t *testing.T, query string) (*ops.Expr, *md.ColumnFactory) {
	t.Helper()
	acc, f := normCatalog(t)
	q, err := sql.Bind(query, acc, f)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	out, err := core.Normalize(q.Tree, f)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return out, f
}

func countOps(e *ops.Expr, name string) int {
	n := 0
	if e.Op.Name() == name {
		n++
	}
	for _, c := range e.Children {
		n += countOps(c, name)
	}
	return n
}

func treeString(e *ops.Expr) string { return e.Format(nil) }

func TestNormalizeCollapsesInnerJoins(t *testing.T) {
	tree, _ := normalize(t,
		"SELECT r.v FROM r, s, u WHERE r.k = s.k AND s.k = u.k")
	if countOps(tree, "NAryJoin") != 1 {
		t.Errorf("expected one NAryJoin:\n%s", treeString(tree))
	}
	if countOps(tree, "InnerJoin") != 0 {
		t.Errorf("binary joins survived collapse:\n%s", treeString(tree))
	}
	var nary *ops.NAryJoin
	var find func(e *ops.Expr)
	find = func(e *ops.Expr) {
		if nj, ok := e.Op.(*ops.NAryJoin); ok {
			nary = nj
		}
		for _, c := range e.Children {
			find(c)
		}
	}
	find(tree)
	if len(nary.Preds) != 2 {
		t.Errorf("join predicates = %d, want 2", len(nary.Preds))
	}
}

func TestNormalizePushesPredicatesToScans(t *testing.T) {
	tree, _ := normalize(t,
		"SELECT r.v FROM r, s WHERE r.k = s.k AND r.v > 5 AND s.v < 3")
	// Single-table conjuncts must sit in Selects directly over the Gets,
	// below the join.
	var check func(e *ops.Expr) bool
	var foundSelects int
	check = func(e *ops.Expr) bool {
		if _, ok := e.Op.(*ops.Select); ok {
			if _, isGet := e.Children[0].Op.(*ops.Get); isGet {
				foundSelects++
			}
		}
		for _, c := range e.Children {
			check(c)
		}
		return true
	}
	check(tree)
	if foundSelects != 2 {
		t.Errorf("pushed selects = %d, want 2:\n%s", foundSelects, treeString(tree))
	}
}

func TestNormalizeLeftJoinPushdownRules(t *testing.T) {
	// Right-side-only conjunct of the ON clause may go below; the
	// left-side-only ON conjunct must stay in the join.
	tree, _ := normalize(t, `
		SELECT r.v FROM r LEFT JOIN s ON r.k = s.k AND s.v = 1 AND r.v = 2`)
	s := treeString(tree)
	// The join must keep a predicate mentioning r.v (left side of LOJ).
	var loj *ops.Join
	var find func(e *ops.Expr)
	find = func(e *ops.Expr) {
		if j, ok := e.Op.(*ops.Join); ok && j.Type == ops.LeftJoin {
			loj = j
		}
		for _, c := range e.Children {
			find(c)
		}
	}
	find(tree)
	if loj == nil {
		t.Fatalf("left join lost:\n%s", s)
	}
	if len(ops.Conjuncts(loj.Pred)) != 2 {
		t.Errorf("LOJ predicate conjuncts = %d, want 2 (key + left-side filter):\n%s",
			len(ops.Conjuncts(loj.Pred)), s)
	}
}

func TestNormalizeUnnestsExists(t *testing.T) {
	tree, _ := normalize(t, `
		SELECT r.v FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.k = r.k AND s.v > 2)`)
	if countOps(tree, "SemiJoin") != 1 {
		t.Fatalf("EXISTS not unnested to semi join:\n%s", treeString(tree))
	}
	// The uncorrelated part (s.v > 2) must be pushed into the inner side,
	// the correlation becomes the join predicate.
	var semi *ops.Join
	var find func(e *ops.Expr)
	find = func(e *ops.Expr) {
		if j, ok := e.Op.(*ops.Join); ok && j.Type == ops.SemiJoin {
			semi = j
		}
		for _, c := range e.Children {
			find(c)
		}
	}
	find(tree)
	if semi.Pred == nil || len(ops.Conjuncts(semi.Pred)) != 1 {
		t.Errorf("semi join predicate: %v", semi.Pred)
	}
	if ops.FreeCols(tree).Len() != 0 {
		t.Error("normalized tree still has free columns")
	}
}

func TestNormalizeUnnestsNotInToAntiJoin(t *testing.T) {
	tree, _ := normalize(t,
		"SELECT r.v FROM r WHERE r.k NOT IN (SELECT s.k FROM s)")
	if countOps(tree, "AntiJoin") != 1 {
		t.Errorf("NOT IN not unnested to anti join:\n%s", treeString(tree))
	}
}

func TestNormalizeDecorrelatesScalarAgg(t *testing.T) {
	tree, _ := normalize(t, `
		SELECT r.v FROM r
		WHERE r.v > (SELECT avg(s.v) FROM s WHERE s.k = r.k)`)
	s := treeString(tree)
	if strings.Contains(s, "Subquery") {
		t.Fatalf("subquery survived decorrelation:\n%s", s)
	}
	// The aggregate must now group by the correlation column.
	var agg *ops.GbAgg
	var find func(e *ops.Expr)
	find = func(e *ops.Expr) {
		if a, ok := e.Op.(*ops.GbAgg); ok {
			agg = a
		}
		for _, c := range e.Children {
			find(c)
		}
	}
	find(tree)
	if agg == nil || len(agg.GroupCols) != 1 {
		t.Fatalf("decorrelated aggregate missing correlation grouping:\n%s", s)
	}
}

func TestNormalizeRejectsNonEqualityAggCorrelation(t *testing.T) {
	acc, f := normCatalog(t)
	q, err := sql.Bind(`
		SELECT r.v FROM r
		WHERE r.v > (SELECT avg(s.v) FROM s WHERE s.k < r.k)`, acc, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Normalize(q.Tree, f); err == nil {
		t.Error("non-equality aggregate correlation must be rejected, not silently mis-planned")
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	tree, f := normalize(t,
		"SELECT r.v FROM r, s WHERE r.k = s.k AND r.v > 5")
	again, err := core.Normalize(tree, f)
	if err != nil {
		t.Fatal(err)
	}
	if treeString(again) != treeString(tree) {
		t.Errorf("normalization not idempotent:\n--- first ---\n%s--- second ---\n%s",
			treeString(tree), treeString(again))
	}
}

// TestNormalizeLeavesInputIntact: Normalize copies on write, so the bound
// tree a failed pass hands to the diagnostic dump is the query as bound.
func TestNormalizeLeavesInputIntact(t *testing.T) {
	p := md.NewMemProvider()
	tpcds.BuildCatalog(p, tpcds.Scale{Factor: 1})
	cache := md.NewCache(&gpos.MemoryAccountant{})
	for _, wq := range tpcds.Workload() {
		q, err := sql.Bind(wq.SQL, md.NewAccessor(cache, p), md.NewColumnFactory())
		if err != nil {
			t.Fatalf("%s: bind: %v", wq.Name, err)
		}
		before := dxl.SerializeQuery(q).Render()
		if _, err := core.Normalize(q.Tree, q.Factory); err != nil {
			t.Fatalf("%s: normalize: %v", wq.Name, err)
		}
		if dxl.SerializeQuery(q).Render() != before {
			t.Errorf("%s: Normalize changed the caller's tree", wq.Name)
		}
	}
}

func bindFresh(t *testing.T, query string) *core.Query {
	t.Helper()
	acc, f := normCatalog(t)
	q, err := sql.Bind(query, acc, f)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestMultiStageOptimizationPrefersBest(t *testing.T) {
	const query = "SELECT r.v FROM r, s WHERE r.k = s.k ORDER BY r.v"
	cfg := core.DefaultConfig(16)
	cfg.Stages = []core.Stage{
		{Name: "crippled", DisabledRules: []string{"Join2HashJoin"}},
		{Name: "full"},
	}
	res, err := core.Optimize(bindFresh(t, query), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage != "full" {
		t.Errorf("winning stage = %q, want the full stage's cheaper plan", res.Stage)
	}

	cfg2 := core.DefaultConfig(16)
	cfg2.Stages = []core.Stage{
		{Name: "quick", CostThreshold: 1e18}, // any plan beats the threshold
		{Name: "never"},
	}
	res2, err := core.Optimize(bindFresh(t, query), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stage != "quick" {
		t.Errorf("cost threshold did not short-circuit: stage %q", res2.Stage)
	}
}
