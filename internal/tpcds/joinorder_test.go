package tpcds

import (
	"testing"

	"orca/internal/core"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/sql"
)

// joinOrderFamily is the generated join-reordering rule family from
// defs/rules.opt: commutativity and the left rotation.
var joinOrderFamily = []string{"JoinCommutativity", "JoinAssociativity"}

// TestJoinOrderEnumerationTPCDS optimizes 3- and 5-relation TPC-DS star
// joins twice — once unrestricted, once with the join-reordering family
// disabled — and checks the family actually enumerates alternative join
// orders: the memo holds strictly more group expressions and the chosen
// plan is never costlier. Catalog metadata is enough; no data is loaded.
func TestJoinOrderEnumerationTPCDS(t *testing.T) {
	p := md.NewMemProvider()
	BuildCatalog(p, Scale{Factor: 1})
	cache := md.NewCache(&gpos.MemoryAccountant{})

	optimize := func(t *testing.T, sqlText string, disabled []string) *core.Result {
		t.Helper()
		q, err := sql.Bind(sqlText, md.NewAccessor(cache, p), md.NewColumnFactory())
		if err != nil {
			t.Fatalf("bind: %v", err)
		}
		cfg := core.DefaultConfig(4)
		cfg.DisabledRules = disabled
		res, err := core.Optimize(q, cfg)
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		if res.Plan == nil {
			t.Fatal("no plan")
		}
		return res
	}

	byName := map[string]Query{}
	for _, wq := range Workload() {
		byName[wq.Name] = wq
	}
	// q3 joins 3 relations (date_dim, store_sales, item); q7 and q19 join 5.
	for _, name := range []string{"q3", "q7", "q19"} {
		wq, ok := byName[name]
		if !ok {
			t.Fatalf("workload query %s missing", name)
		}
		t.Run(name, func(t *testing.T) {
			full := optimize(t, wq.SQL, nil)
			restricted := optimize(t, wq.SQL, joinOrderFamily)
			t.Logf("full: cost=%.0f groups=%d exprs=%d rules=%d; restricted: cost=%.0f groups=%d exprs=%d rules=%d",
				full.Cost, full.Groups, full.GroupExprs, full.RulesFired,
				restricted.Cost, restricted.Groups, restricted.GroupExprs, restricted.RulesFired)
			if full.GroupExprs <= restricted.GroupExprs {
				t.Errorf("join-order family enumerated no alternatives: %d exprs with, %d without",
					full.GroupExprs, restricted.GroupExprs)
			}
			if full.RulesFired <= restricted.RulesFired {
				t.Errorf("join-order family fired no rules: %d with, %d without",
					full.RulesFired, restricted.RulesFired)
			}
			if full.Cost > restricted.Cost {
				t.Errorf("plan with join reordering costs %.2f, worse than %.2f without",
					full.Cost, restricted.Cost)
			}
		})
	}
}
