package xform_test

import (
	"fmt"
	"strings"
	"testing"

	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/sql"
	"orca/internal/stats"
	"orca/internal/tpcds"
	"orca/internal/xform"
)

// The join rules over the conjunct table against the reference split
// (rules_join_ref_test.go): every join JoinAssociativity, JoinCommutativity
// or an NAryJoin expansion inserts must carry a predicate Equal to the one
// the reference computes from the same inputs.

// joinShapes are the 6-relation chain, star, snowflake and cycle graphs of
// TestJoinEnumerationComplete (internal/tpcds).
var joinShapes = map[string]string{
	"chain": `SELECT ca.ca_address_sk FROM customer_address ca, customer c, store_returns sr, store_sales ss, item i, catalog_sales cs
		WHERE c.c_current_addr_sk = ca.ca_address_sk AND sr.sr_customer_sk = c.c_customer_sk
		AND ss.ss_ticket_number = sr.sr_ticket_number AND i.i_item_sk = ss.ss_item_sk AND cs.cs_item_sk = i.i_item_sk`,
	"star": `SELECT ss.ss_item_sk FROM store_sales ss, date_dim d1, item i, store s, promotion p, customer c
		WHERE d1.d_date_sk = ss.ss_sold_date_sk AND i.i_item_sk = ss.ss_item_sk AND s.s_store_sk = ss.ss_store_sk
		AND p.p_promo_sk = ss.ss_promo_sk AND c.c_customer_sk = ss.ss_customer_sk`,
	"snowflake": `SELECT ss.ss_item_sk FROM store_sales ss, customer c, customer_address ca, date_dim d1, customer_demographics cd, item i
		WHERE c.c_customer_sk = ss.ss_customer_sk AND ca.ca_address_sk = c.c_current_addr_sk AND d1.d_date_sk = ss.ss_sold_date_sk
		AND cd.cd_demo_sk = c.c_current_cdemo_sk AND i.i_item_sk = ss.ss_item_sk`,
	"cycle": `SELECT ss.ss_item_sk FROM store_sales ss, store_returns sr, item i, customer c, date_dim d1, store s
		WHERE sr.sr_ticket_number = ss.ss_ticket_number AND i.i_item_sk = ss.ss_item_sk AND i.i_item_sk = sr.sr_item_sk
		AND c.c_customer_sk = ss.ss_customer_sk AND c.c_customer_sk = sr.sr_customer_sk
		AND d1.d_date_sk = ss.ss_sold_date_sk AND s.s_store_sk = ss.ss_store_sk`,
}

type catalog struct {
	p     *md.MemProvider
	cache *md.Cache
}

func newCatalog() catalog {
	p := md.NewMemProvider()
	tpcds.BuildCatalog(p, tpcds.Scale{Factor: 1})
	return catalog{p, md.NewCache(&gpos.MemoryAccountant{})}
}

// search binds and normalizes a query and copies it into a fresh Memo.
func (c catalog) search(t *testing.T, sqlText string) *xform.Context {
	t.Helper()
	q, err := sql.Bind(sqlText, md.NewAccessor(c.cache, c.p), md.NewColumnFactory())
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	tree, err := core.Normalize(q.Tree, q.Factory)
	if err != nil {
		t.Fatal(err)
	}
	m := memo.New(&gpos.MemoryAccountant{})
	root, err := m.Insert(tree)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRoot(root)
	return &xform.Context{Memo: m, Stats: stats.NewContext(q.Accessor), Accessor: q.Accessor, ColFactory: q.Factory, Segments: 4}
}

// refCheck explores a Memo with the join rules, children first as the
// search does, and compares each firing's new joins with the reference.
type refCheck struct {
	ctx        *xform.Context
	rules      []xform.Rule
	seen       map[memo.GroupID]bool
	fired      map[string]int // firings that inserted a join, by rule
	shared     int            // rotations whose two predicates share a conjunct
	mismatches []string
}

func newRefCheck(ctx *xform.Context) *refCheck {
	c := &refCheck{ctx: ctx, seen: map[memo.GroupID]bool{}, fired: map[string]int{}}
	for _, r := range xform.DefaultRules() {
		switch r.Name() {
		case "JoinCommutativity", "JoinAssociativity", "ExpandNAryJoinDP", "ExpandNAryJoinGreedy", "ExpandNAryJoinLeftDeep":
			c.rules = append(c.rules, r)
		}
	}
	return c
}

func (c *refCheck) explore(t *testing.T, id memo.GroupID) {
	if c.seen[id] {
		return
	}
	c.seen[id] = true
	g := c.ctx.Memo.Group(id)
	for i := 0; i < g.NumExprs(); i++ {
		ge := g.Exprs()[i]
		for _, ch := range ge.Children {
			c.explore(t, ch)
		}
		for _, r := range c.rules {
			if r.Matches(ge) {
				c.fire(t, r, ge)
			}
		}
	}
}

// expect is one join a firing may insert: its two sides' columns and the
// reference predicate.
type expect struct {
	l, r base.ColSet
	pred ops.ScalarExpr
}

func (c *refCheck) cols(id memo.GroupID) base.ColSet {
	return c.ctx.Memo.Group(id).Logical().OutputCols
}

func (c *refCheck) fire(t *testing.T, r xform.Rule, ge *memo.GroupExpr) {
	// A rule adds expressions to ge's group or to fresh groups.
	m := c.ctx.Memo
	oldGroups, oldExprs := m.NumGroups(), ge.Group().NumExprs()
	var want []expect
	var nary *ops.NAryJoin
	switch op := ge.Op.(type) {
	case *ops.NAryJoin:
		nary = op
	case *ops.Join:
		if r.Name() == "JoinCommutativity" {
			want = append(want, expect{c.cols(ge.Children[1]), c.cols(ge.Children[0]), op.Pred})
			break
		}
		cCols := c.cols(ge.Children[1])
		for _, lower := range m.Group(ge.Children[0]).Exprs() {
			lj, ok := lower.Op.(*ops.Join)
			if !ok || lj.Type != ops.InnerJoin {
				continue
			}
			top, low := ops.Conjuncts(op.Pred), ops.Conjuncts(lj.Pred)
			for _, p := range top {
				for _, q := range low {
					if p == q {
						c.shared++
					}
				}
			}
			bCols := c.cols(lower.Children[1])
			inner, outer, ok := xform.SplitJoinPredsRef(append(top, low...), bCols, cCols)
			if ok {
				want = append(want, expect{bCols, cCols, inner}, expect{c.cols(lower.Children[0]), bCols.Union(cCols), outer})
			}
		}
	}
	if err := r.Apply(c.ctx, ge); err != nil {
		t.Fatalf("%s: %v", r.Name(), err)
	}
	added := append([]*memo.GroupExpr(nil), ge.Group().Exprs()[oldExprs:]...)
	for id := oldGroups; id < m.NumGroups(); id++ {
		added = append(added, m.Group(memo.GroupID(id)).Exprs()...)
	}
	if len(added) > 0 {
		c.fired[r.Name()]++
	}
	for _, x := range added {
		j, ok := x.Op.(*ops.Join)
		if !ok {
			c.mismatches = append(c.mismatches, fmt.Sprintf("%s inserted a %T", r.Name(), x.Op))
			continue
		}
		l, rc := c.cols(x.Children[0]), c.cols(x.Children[1])
		if nary != nil {
			if ref := xform.CrossingRef(nary.Preds, l, rc); !same(j.Pred, ref) {
				c.mismatches = append(c.mismatches, fmt.Sprintf("%s: %v ⋈ %v on %v, reference %v", r.Name(), l, rc, j.Pred, ref))
			}
			continue
		}
		matched := false
		for _, w := range want {
			if (w.l.Equal(l) && w.r.Equal(rc) || w.l.Equal(rc) && w.r.Equal(l)) && same(j.Pred, w.pred) {
				matched = true
			}
		}
		if !matched {
			c.mismatches = append(c.mismatches, fmt.Sprintf("%s: %v ⋈ %v on %v matches no reference join", r.Name(), l, rc, j.Pred))
		}
	}
}

func same(a, b ops.ScalarExpr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Equal(b)
}

func (c *refCheck) run(t *testing.T) {
	t.Helper()
	c.explore(t, c.ctx.Memo.Root())
	for i, msg := range c.mismatches {
		if i == 5 {
			t.Errorf("... %d mismatches in all", len(c.mismatches))
			break
		}
		t.Error(msg)
	}
}

// TestJoinRulesMatchReference fires the join rules over the 32 TPC-DS
// queries and the four join shapes and holds every inserted join to the
// reference. It also checks the invariant the rotation relies on: the two
// joins of a rotation never share a conjunct.
func TestJoinRulesMatchReference(t *testing.T) {
	cat := newCatalog()
	queries := map[string]string{}
	for _, wq := range tpcds.Workload() {
		queries[wq.Name] = wq.SQL
	}
	for name, q := range joinShapes {
		queries[name] = q
	}
	total := map[string]int{}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			c := newRefCheck(cat.search(t, q))
			c.run(t)
			if c.shared > 0 {
				t.Errorf("%d rotations had a conjunct in both joins", c.shared)
			}
			for r, n := range c.fired {
				total[r] += n
			}
		})
	}
	for _, r := range []string{"JoinCommutativity", "JoinAssociativity", "ExpandNAryJoinDP", "ExpandNAryJoinGreedy", "ExpandNAryJoinLeftDeep"} {
		if total[r] == 0 {
			t.Errorf("%s never inserted a join: the comparison covers nothing", r)
		}
	}
	t.Logf("firings that inserted joins: %v", total)
}

// TestJoinRulesBeyond64Conjuncts runs the star shape with 15 extra
// conjuncts per link, so the search's table holds more than 64 conjuncts
// and its id sets take more than one word.
func TestJoinRulesBeyond64Conjuncts(t *testing.T) {
	links := []string{"d1.d_date_sk = ss.ss_sold_date_sk", "i.i_item_sk = ss.ss_item_sk", "s.s_store_sk = ss.ss_store_sk",
		"p.p_promo_sk = ss.ss_promo_sk", "c.c_customer_sk = ss.ss_customer_sk"}
	var where []string
	for _, l := range links {
		where = append(where, l)
		lhs, rhs, _ := strings.Cut(l, " = ")
		for k := 1; k <= 15; k++ {
			where = append(where, fmt.Sprintf("%s + %d <> %s", lhs, k, rhs))
		}
	}
	q := "SELECT ss.ss_item_sk FROM store_sales ss, date_dim d1, item i, store s, promotion p, customer c WHERE " +
		strings.Join(where, " AND ")
	c := newRefCheck(newCatalog().search(t, q))
	c.run(t)
	if n := xform.NumConjuncts(c.ctx); n <= 64 {
		t.Fatalf("the table holds %d conjuncts, want more than 64", n)
	}
	if c.fired["JoinAssociativity"] == 0 || c.fired["ExpandNAryJoinDP"] == 0 {
		t.Errorf("rules fired: %v", c.fired)
	}
}

// TestJoinRulesTamperedTableCaught moves one conjunct to the wrong side: the
// table records the cycle's sr–ss link as if its columns were the i–ss
// link's. The comparison with the reference must notice.
func TestJoinRulesTamperedTableCaught(t *testing.T) {
	ctx := newCatalog().search(t, joinShapes["cycle"])
	var nary *ops.NAryJoin
	for id := 0; id < ctx.Memo.NumGroups() && nary == nil; id++ {
		for _, x := range ctx.Memo.Group(memo.GroupID(id)).Exprs() {
			if j, ok := x.Op.(*ops.NAryJoin); ok {
				nary = j
			}
		}
	}
	if nary == nil || len(nary.Preds) < 2 {
		t.Fatal("no NAryJoin with two conjuncts in the cycle query")
	}
	xform.TamperConjunct(ctx, nary.Preds[0], nary.Preds[1].Cols().Ordered())
	c := newRefCheck(ctx)
	c.explore(t, ctx.Memo.Root())
	if len(c.mismatches) == 0 {
		t.Fatal("a conjunct on the wrong side went unnoticed")
	}
	t.Logf("%d mismatches, first: %s", len(c.mismatches), c.mismatches[0])
}
