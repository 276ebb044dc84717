package sql

import (
	"strings"
	"testing"

	"orca/internal/base"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
)

// ---------------------------------------------------------------------------
// Parser

func TestParseSelectShapes(t *testing.T) {
	good := []string{
		"SELECT a FROM t",
		"SELECT * FROM t",
		"SELECT a, b AS bb, a + 1 one FROM t WHERE a > 1 AND b < 2",
		"SELECT a FROM t1, t2 WHERE t1.a = t2.b",
		"SELECT a FROM t1 JOIN t2 ON t1.a = t2.a LEFT JOIN t3 ON t2.b = t3.b",
		"SELECT count(*) FROM t GROUP BY a HAVING count(*) > 2",
		"SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 10 OFFSET 5",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b LIKE 'x%'",
		"SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN (4)",
		"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.x = t.a)",
		"SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM s)",
		"SELECT a FROM t WHERE a > (SELECT max(x) FROM s)",
		"SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t",
		"WITH c AS (SELECT a FROM t) SELECT * FROM c",
		"WITH c (x) AS (SELECT a FROM t) SELECT x FROM c",
		"SELECT a FROM t UNION ALL SELECT b FROM s ORDER BY 1",
		"SELECT a FROM t INTERSECT SELECT a FROM s",
		"SELECT a FROM t EXCEPT SELECT a FROM s",
		"SELECT rank() OVER (PARTITION BY a ORDER BY b DESC) FROM t",
		"SELECT a FROM (SELECT b AS a FROM s) AS sub",
		"SELECT a FROM t WHERE a IS NOT NULL AND b IS NULL",
		"SELECT sum(DISTINCT a) FROM t",
		"SELECT -a, a % 2 FROM t -- trailing comment",
		"SELECT a FROM t GROUP BY ROLLUP (a, b)",
		"SELECT a FROM t;",
	}
	for _, q := range good {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
}

// TestLexFoldsCase checks the lexer's case handling: a keyword in any case
// becomes the keyword's own upper-case text, an identifier is lower-cased,
// and a word longer than every keyword, or one letter off, is an
// identifier.
func TestLexFoldsCase(t *testing.T) {
	for k := range keywords {
		if len(k) > maxKeyword {
			t.Errorf("keyword %s is longer than maxKeyword %d", k, maxKeyword)
		}
	}
	toks, err := lex("select Foo, bar_1 FROM Intersection wHeRe intersect partitions")
	if err != nil {
		t.Fatal(err)
	}
	want := []token{
		{tokKeyword, "SELECT", 0}, {tokIdent, "foo", 7}, {tokSymbol, ",", 10},
		{tokIdent, "bar_1", 12}, {tokKeyword, "FROM", 18}, {tokIdent, "intersection", 23},
		{tokKeyword, "WHERE", 36}, {tokKeyword, "INTERSECT", 42}, {tokIdent, "partitions", 52},
		{tokEOF, "", 62},
	}
	if len(toks) != len(want) {
		t.Fatalf("lexed %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %+v, want %+v", i, toks[i], want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t ORDER a",
		"SELECT a t1 FROM t extra_token_fail (",
		"SELECT a FROM t UNION SELECT b FROM s", // bare UNION unsupported
		"SELECT a FROM (SELECT b FROM s)",       // derived table needs alias
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t LIMIT abc",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) accepted", q)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	blk := stmt.Body.(*SelectBlock)
	or, ok := blk.Where.(*BinExpr)
	if !ok || or.Op != "or" {
		t.Fatalf("top operator %T, want OR (AND binds tighter)", blk.Where)
	}
	and, ok := or.R.(*BinExpr)
	if !ok || and.Op != "and" {
		t.Fatalf("right side %T, want AND", or.R)
	}
	// Arithmetic precedence: 1 + 2 * 3 parses as 1 + (2*3).
	stmt2, _ := Parse("SELECT 1 + 2 * 3 FROM t")
	plus := stmt2.Body.(*SelectBlock).Items[0].Expr.(*BinExpr)
	if plus.Op != "+" {
		t.Fatalf("top arithmetic %q", plus.Op)
	}
	if mul, ok := plus.R.(*BinExpr); !ok || mul.Op != "*" {
		t.Fatal("multiplication does not bind tighter than addition")
	}
}

// ---------------------------------------------------------------------------
// Binder

func binderCatalog(t testing.TB) (*md.Accessor, *md.ColumnFactory) {
	t.Helper()
	p := md.NewMemProvider()
	md.Build(p, md.TableSpec{
		Name: "emp", Rows: 100, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "id", Type: base.TInt, NDV: 100, Lo: 0, Hi: 100},
			{Name: "dept", Type: base.TInt, NDV: 10, Lo: 0, Hi: 10},
			{Name: "salary", Type: base.TInt, NDV: 50, Lo: 0, Hi: 50000},
		},
	})
	md.Build(p, md.TableSpec{
		Name: "dept", Rows: 10, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "id", Type: base.TInt, NDV: 10, Lo: 0, Hi: 10},
			{Name: "name", Type: base.TString, NDV: 10, Lo: 0, Hi: 10},
		},
	})
	return md.NewAccessor(md.NewCache(&gpos.MemoryAccountant{}), p), md.NewColumnFactory()
}

func mustBind(t *testing.T, q string) *ops.Expr {
	t.Helper()
	acc, f := binderCatalog(t)
	bound, err := Bind(q, acc, f)
	if err != nil {
		t.Fatalf("Bind(%q): %v", q, err)
	}
	return bound.Tree
}

func TestBindSimpleProjection(t *testing.T) {
	tree := mustBind(t, "SELECT id, salary * 2 AS double_pay FROM emp")
	proj, ok := tree.Op.(*ops.Project)
	if !ok {
		t.Fatalf("root is %T", tree.Op)
	}
	if len(proj.Elems) != 2 {
		t.Fatalf("projections = %d", len(proj.Elems))
	}
	if _, ok := proj.Elems[1].Expr.(*ops.BinOp); !ok {
		t.Error("computed projection lost")
	}
}

func TestBindStarExpansion(t *testing.T) {
	acc, f := binderCatalog(t)
	q, err := Bind("SELECT * FROM emp", acc, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.OutCols) != 3 || q.OutNames[0] != "id" || q.OutNames[2] != "salary" {
		t.Errorf("star expansion: %v", q.OutNames)
	}
}

func TestBindScopes(t *testing.T) {
	// Qualified, unqualified and ambiguous references.
	if _, err := func() (*ops.Expr, error) {
		acc, f := binderCatalog(t)
		q, err := Bind("SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id", acc, f)
		if err != nil {
			return nil, err
		}
		return q.Tree, nil
	}(); err != nil {
		t.Errorf("qualified reference failed: %v", err)
	}
	acc, f := binderCatalog(t)
	if _, err := Bind("SELECT id FROM emp, dept", acc, f); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column not detected: %v", err)
	}
	acc2, f2 := binderCatalog(t)
	if _, err := Bind("SELECT nosuch FROM emp", acc2, f2); err == nil {
		t.Error("unknown column accepted")
	}
	acc3, f3 := binderCatalog(t)
	if _, err := Bind("SELECT id FROM nosuch_table", acc3, f3); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestBindSelfJoinDistinctColumns(t *testing.T) {
	tree := mustBind(t, "SELECT a.id FROM emp a, emp b WHERE a.id = b.id")
	// The two instances must produce disjoint column sets.
	join := findOp(tree, "InnerJoin")
	if join == nil {
		t.Fatal("no join in bound tree")
	}
	l := ops.OutputColsOf(join.Children[0])
	r := ops.OutputColsOf(join.Children[1])
	if l.Intersects(r) {
		t.Errorf("self join instances share columns: %s ∩ %s", l, r)
	}
}

func TestBindAggregationRewritesAvg(t *testing.T) {
	tree := mustBind(t, "SELECT dept, avg(salary) FROM emp GROUP BY dept")
	// avg is rewritten to sum/count: somewhere below there is a GbAgg with
	// both aggregates and a projection computing the division.
	var sawAgg, sawDiv bool
	var walk func(e *ops.Expr)
	walk = func(e *ops.Expr) {
		switch o := e.Op.(type) {
		case *ops.GbAgg:
			names := map[string]bool{}
			for _, a := range o.Aggs {
				names[a.Agg.Name] = true
			}
			if names["sum"] && names["count"] {
				sawAgg = true
			}
		case *ops.Project:
			for _, el := range o.Elems {
				if b, ok := el.Expr.(*ops.BinOp); ok && b.Op == "/" {
					sawDiv = true
				}
			}
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(tree)
	if !sawAgg || !sawDiv {
		t.Errorf("avg rewrite missing: agg=%v div=%v", sawAgg, sawDiv)
	}
}

func TestBindGroupByExpression(t *testing.T) {
	tree := mustBind(t, `
		SELECT CASE WHEN salary > 1000 THEN 1 ELSE 0 END AS band, count(*)
		FROM emp GROUP BY CASE WHEN salary > 1000 THEN 1 ELSE 0 END`)
	// The SELECT's CASE must be substituted by the grouping column: the
	// final projection may not contain a CASE anymore.
	proj := tree.Op.(*ops.Project)
	for _, el := range proj.Elems {
		if _, isCase := el.Expr.(*ops.Case); isCase {
			t.Error("grouped expression not substituted in the select list")
		}
	}
}

func TestBindHavingUsesAggregates(t *testing.T) {
	tree := mustBind(t, "SELECT dept FROM emp GROUP BY dept HAVING sum(salary) > 100")
	// HAVING becomes a Select above the GbAgg referencing the agg column.
	var sawSelect bool
	var walk func(e *ops.Expr)
	walk = func(e *ops.Expr) {
		if sel, ok := e.Op.(*ops.Select); ok {
			if _, ok := e.Children[0].Op.(*ops.GbAgg); ok {
				sawSelect = true
				if len(sel.Pred.Cols().Ordered()) == 0 {
					t.Error("HAVING predicate references nothing")
				}
			}
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(tree)
	if !sawSelect {
		t.Error("HAVING did not become a Select over GbAgg")
	}
}

func TestBindSubqueryCorrelation(t *testing.T) {
	tree := mustBind(t, `
		SELECT id FROM emp
		WHERE salary > (SELECT avg(e2.salary) FROM emp e2 WHERE e2.dept = emp.dept)`)
	// The bound tree contains a Subquery scalar whose input has free
	// columns referencing the outer emp instance.
	var sq *ops.Subquery
	var walk func(e *ops.Expr)
	walk = func(e *ops.Expr) {
		if sel, ok := e.Op.(*ops.Select); ok {
			for _, c := range ops.Conjuncts(sel.Pred) {
				if cmp, ok := c.(*ops.Cmp); ok {
					if s, ok := cmp.R.(*ops.Subquery); ok {
						sq = s
					}
				}
			}
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(tree)
	if sq == nil {
		t.Fatal("subquery not bound")
	}
	if ops.FreeCols(sq.Input).Empty() {
		t.Error("correlation lost: subquery input has no free columns")
	}
}

func TestBindCTEConsumersGetFreshColumns(t *testing.T) {
	tree := mustBind(t, `
		WITH top AS (SELECT dept, sum(salary) AS total FROM emp GROUP BY dept)
		SELECT a.dept FROM top a, top b WHERE a.dept = b.dept`)
	anchor, ok := findOp(tree, "CTEAnchor").Op.(*ops.CTEAnchor)
	if !ok {
		t.Fatal("no CTE anchor")
	}
	_ = anchor
	var consumers []*ops.CTEConsumer
	var walk func(e *ops.Expr)
	walk = func(e *ops.Expr) {
		if c, ok := e.Op.(*ops.CTEConsumer); ok {
			consumers = append(consumers, c)
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(tree)
	if len(consumers) != 2 {
		t.Fatalf("consumers = %d, want 2", len(consumers))
	}
	if consumers[0].Cols[0].ID == consumers[1].Cols[0].ID {
		t.Error("consumer instances share column ids")
	}
}

func findOp(e *ops.Expr, name string) *ops.Expr {
	if e.Op.Name() == name {
		return e
	}
	for _, c := range e.Children {
		if got := findOp(c, name); got != nil {
			return got
		}
	}
	return nil
}

func TestBindOrderByAliasPositionAndQualified(t *testing.T) {
	acc, f := binderCatalog(t)
	q, err := Bind("SELECT dept AS d, sum(salary) AS s FROM emp GROUP BY dept ORDER BY s DESC, 1", acc, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Order.Items) != 2 || !q.Order.Items[0].Desc || q.Order.Items[1].Desc {
		t.Errorf("order = %s", q.Order)
	}
	if q.Order.Items[0].Col != q.OutCols[1] || q.Order.Items[1].Col != q.OutCols[0] {
		t.Errorf("order columns misresolved: %s vs outs %v", q.Order, q.OutCols)
	}
	acc2, f2 := binderCatalog(t)
	if _, err := Bind("SELECT dept FROM emp ORDER BY 5", acc2, f2); err == nil {
		t.Error("out-of-range ORDER BY position accepted")
	}
}

func TestBindSetOperationArity(t *testing.T) {
	acc, f := binderCatalog(t)
	if _, err := Bind("SELECT id, dept FROM emp UNION ALL SELECT id FROM dept", acc, f); err == nil {
		t.Error("arity mismatch accepted")
	}
}
