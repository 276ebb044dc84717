package tpcds

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/sql"
)

// joinRel is one relation of a test join graph: its table, alias and the
// equi-join predicates linking it to relations listed before it (by index).
// Every prefix of a graph is connected, so the first n relations form a
// connected n-relation query for any n >= 2.
type joinRel struct {
	table, alias string
	links        map[int]string
}

// The four graph shapes, each over six TPC-DS relations.
var joinGraphs = map[string][]joinRel{
	// ca – c – sr – ss – i – cs
	"chain": {
		{"customer_address", "ca", nil},
		{"customer", "c", map[int]string{0: "c.c_current_addr_sk = ca.ca_address_sk"}},
		{"store_returns", "sr", map[int]string{1: "sr.sr_customer_sk = c.c_customer_sk"}},
		{"store_sales", "ss", map[int]string{2: "ss.ss_ticket_number = sr.sr_ticket_number"}},
		{"item", "i", map[int]string{3: "i.i_item_sk = ss.ss_item_sk"}},
		{"catalog_sales", "cs", map[int]string{4: "cs.cs_item_sk = i.i_item_sk"}},
	},
	// store_sales with five dimensions.
	"star": {
		{"store_sales", "ss", nil},
		{"date_dim", "d1", map[int]string{0: "d1.d_date_sk = ss.ss_sold_date_sk"}},
		{"item", "i", map[int]string{0: "i.i_item_sk = ss.ss_item_sk"}},
		{"store", "s", map[int]string{0: "s.s_store_sk = ss.ss_store_sk"}},
		{"promotion", "p", map[int]string{0: "p.p_promo_sk = ss.ss_promo_sk"}},
		{"customer", "c", map[int]string{0: "c.c_customer_sk = ss.ss_customer_sk"}},
	},
	// store_sales → customer → address/demographics, plus two dimensions.
	"snowflake": {
		{"store_sales", "ss", nil},
		{"customer", "c", map[int]string{0: "c.c_customer_sk = ss.ss_customer_sk"}},
		{"customer_address", "ca", map[int]string{1: "ca.ca_address_sk = c.c_current_addr_sk"}},
		{"date_dim", "d1", map[int]string{0: "d1.d_date_sk = ss.ss_sold_date_sk"}},
		{"customer_demographics", "cd", map[int]string{1: "cd.cd_demo_sk = c.c_current_cdemo_sk"}},
		{"item", "i", map[int]string{0: "i.i_item_sk = ss.ss_item_sk"}},
	},
	// The ss–sr–item triangle, the ss–sr–customer square, two dimensions.
	"cycle": {
		{"store_sales", "ss", nil},
		{"store_returns", "sr", map[int]string{0: "sr.sr_ticket_number = ss.ss_ticket_number"}},
		{"item", "i", map[int]string{0: "i.i_item_sk = ss.ss_item_sk", 1: "i.i_item_sk = sr.sr_item_sk"}},
		{"customer", "c", map[int]string{0: "c.c_customer_sk = ss.ss_customer_sk", 1: "c.c_customer_sk = sr.sr_customer_sk"}},
		{"date_dim", "d1", map[int]string{0: "d1.d_date_sk = ss.ss_sold_date_sk"}},
		{"store", "s", map[int]string{0: "s.s_store_sk = ss.ss_store_sk"}},
	},
}

// relSet is a bitmask over a graph's relations.
type relSet uint32

// split is an ordered (left-set, right-set) pair joined by one expression.
type split struct{ l, r relSet }

// joinSpace is the brute-force reference: adjacency, the connected subsets
// of size >= 2, and for each the ordered splits into two connected halves
// with at least one predicate between them.
type joinSpace struct {
	adj    []relSet
	splits map[relSet]map[split]bool
}

func (js *joinSpace) connected(s relSet) bool {
	if s == 0 {
		return false
	}
	seen := s & -s
	for grown := true; grown; {
		grown = false
		for i := range js.adj {
			if seen&(1<<i) != 0 && js.adj[i]&s&^seen != 0 {
				seen |= js.adj[i] & s
				grown = true
			}
		}
	}
	return seen == s
}

func (js *joinSpace) linked(l, r relSet) bool {
	for i := range js.adj {
		if l&(1<<i) != 0 && js.adj[i]&r != 0 {
			return true
		}
	}
	return false
}

func newJoinSpace(rels []joinRel) *joinSpace {
	js := &joinSpace{adj: make([]relSet, len(rels)), splits: map[relSet]map[split]bool{}}
	for i, r := range rels {
		for j := range r.links {
			js.adj[i] |= 1 << j
			js.adj[j] |= 1 << i
		}
	}
	for s := relSet(1); s < 1<<len(rels); s++ {
		if bits.OnesCount32(uint32(s)) < 2 || !js.connected(s) {
			continue
		}
		js.splits[s] = map[split]bool{}
		for l := (s - 1) & s; l > 0; l = (l - 1) & s {
			if r := s &^ l; js.connected(l) && js.connected(r) && js.linked(l, r) {
				js.splits[s][split{l, r}] = true
			}
		}
	}
	return js
}

// TestJoinEnumerationComplete is the contract that lets the rule set carry a
// single reassociation rule: with the default rules, the Memo of an
// n-relation inner join holds exactly the cross-product-free join space —
// every connected relation subset owns a join group, the ordered splits
// found in a subset's groups are exactly the connected-complement pairs, and
// exploration joins no two subsets with no predicate between them. The
// reference is computed by brute force from the query's join graph,
// independently of which rules produced the expressions.
//
// One carve-out, measured rather than assumed: the n-ary expansion rules
// seed the binary trees exploration starts from, and ExpandNAryJoinDP seeds
// a deliberate cross product of two tiny dimensions on the 5- and 6-relation
// stars (store x promotion). A run with reassociation off yields the
// disconnected sets the seeds already contain; exploration may build on
// those but must add no others.
func TestJoinEnumerationComplete(t *testing.T) {
	p := md.NewMemProvider()
	BuildCatalog(p, Scale{Factor: 1})
	cache := md.NewCache(&gpos.MemoryAccountant{})

	for _, shape := range []string{"chain", "star", "snowflake", "cycle"} {
		for n := 3; n <= 6; n++ {
			rels := joinGraphs[shape][:n]
			t.Run(fmt.Sprintf("%s/%d", shape, n), func(t *testing.T) {
				var from, where []string
				for _, r := range rels {
					from = append(from, r.table+" "+r.alias)
					for j := 0; j < n; j++ {
						if pred, ok := r.links[j]; ok {
							where = append(where, pred)
						}
					}
				}
				// Any output column will do; take the first join column.
				sqlText := "SELECT " + strings.Fields(where[0])[0] + " FROM " + strings.Join(from, ", ") +
					" WHERE " + strings.Join(where, " AND ")
				joinSets := func(disabled ...string) (map[relSet]map[split]bool, string) {
					q, err := sql.Bind(sqlText, md.NewAccessor(cache, p), md.NewColumnFactory())
					if err != nil {
						t.Fatalf("bind %q: %v", sqlText, err)
					}
					cfg := core.DefaultConfig(4)
					cfg.DisabledRules = disabled
					res, err := core.Optimize(q, cfg)
					if err != nil {
						t.Fatalf("optimize: %v", err)
					}
					return memoJoinSpace(t, res.Memo, rels)
				}
				want := newJoinSpace(rels)
				seeds, _ := joinSets("JoinCommutativity", "JoinAssociativity")
				got, size := joinSets()

				for s, ws := range want.splits {
					if got[s] == nil {
						t.Errorf("connected set %s owns no join group", names(rels, s))
					}
					for sp := range ws {
						if got[s] != nil && !got[s][sp] {
							t.Errorf("%s: split %s ⋈ %s never enumerated", names(rels, s), names(rels, sp.l), names(rels, sp.r))
						}
					}
				}
				seeded := 0
				for s, gs := range got {
					if !want.connected(s) {
						if seeds[s] == nil {
							t.Errorf("exploration manufactured the disconnected set %s", names(rels, s))
						}
						seeded++
						continue
					}
					for sp := range gs {
						if !want.splits[s][sp] && seeds[sp.l] == nil && seeds[sp.r] == nil {
							t.Errorf("%s: split %s ⋈ %s is outside the cross-product-free space", names(rels, s), names(rels, sp.l), names(rels, sp.r))
						}
					}
				}
				// Duplication the Memo carries for this space (ROADMAP item 5):
				// one group per connected set and one expression per ordered
				// split would suffice.
				wantSplits := 0
				for _, ws := range want.splits {
					wantSplits += len(ws)
				}
				t.Logf("space: %d connected sets, %d ordered splits, %d seeded cross-product sets; memo: %s",
					len(want.splits), wantSplits, seeded, size)
			})
		}
	}
}

// memoJoinSpace walks the Memo's logical inner joins and returns, per
// relation set that owns a join group, the ordered splits its groups hold,
// plus a one-line size summary.
func memoJoinSpace(t *testing.T, m *memo.Memo, rels []joinRel) (map[relSet]map[split]bool, string) {
	t.Helper()
	// Each relation's columns, from its Get.
	relCols := make([]base.ColSet, len(rels))
	for id := 0; id < m.NumGroups(); id++ {
		g := m.Group(memo.GroupID(id))
		for _, x := range g.Exprs() {
			if get, ok := x.Op.(*ops.Get); ok {
				for i, r := range rels {
					if r.alias == get.Alias {
						relCols[i] = g.Logical().OutputCols
					}
				}
			}
		}
	}
	relsOf := func(id memo.GroupID) relSet {
		var s relSet
		for i, cols := range relCols {
			if m.Group(id).Logical().OutputCols.Intersects(cols) {
				s |= 1 << i
			}
		}
		return s
	}

	got := map[relSet]map[split]bool{}
	joinGroups, joinExprs := 0, 0
	for id := 0; id < m.NumGroups(); id++ {
		gid := memo.GroupID(id)
		s := relsOf(gid)
		isJoinGroup := false
		for _, x := range m.Group(gid).Exprs() {
			j, ok := x.Op.(*ops.Join)
			if !ok || j.Type != ops.InnerJoin {
				continue
			}
			isJoinGroup = true
			joinExprs++
			sp := split{relsOf(x.Children[0]), relsOf(x.Children[1])}
			if sp.l|sp.r != s || sp.l&sp.r != 0 || sp.l == 0 || sp.r == 0 {
				t.Fatalf("group %d over %s joins %s with %s", id, names(rels, s), names(rels, sp.l), names(rels, sp.r))
			}
			if got[s] == nil {
				got[s] = map[split]bool{}
			}
			got[s][sp] = true
		}
		if isJoinGroup {
			joinGroups++
		}
	}
	return got, fmt.Sprintf("%d groups, %d join groups (%d duplicate), %d logical join exprs",
		m.NumGroups(), joinGroups, joinGroups-len(got), joinExprs)
}

func names(rels []joinRel, s relSet) string {
	var out []string
	for i, r := range rels {
		if s&(1<<i) != 0 {
			out = append(out, r.alias)
		}
	}
	return "{" + strings.Join(out, ",") + "}"
}
