package plancache_test

import (
	"fmt"
	"strings"
	"testing"

	"orca/internal/core"
	"orca/internal/datagen"
	"orca/internal/engine"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/plancache"
	"orca/internal/props"
	"orca/internal/sql"
	"orca/internal/tpcds"
)

// TestCachedRangePlanSelectsItsOwnPartitions is the plan cache's soundness
// regression for static partition elimination: a plan cached for
// ss_sold_date_sk < 300 (one of store_sales' five yearly partitions) and
// served for < 495 (the same selectivity bucket [256, 511], but two
// partitions) must return the rows of a cache-off optimization of < 495.
func TestCachedRangePlanSelectsItsOwnPartitions(t *testing.T) {
	p := md.NewMemProvider()
	tpcds.BuildCatalog(p, tpcds.Scale{Factor: 1})
	cluster := engine.NewCluster(4, p)
	if err := datagen.LoadAll(cluster, p, 2024); err != nil {
		t.Fatal(err)
	}
	mdCache := md.NewCache(&gpos.MemoryAccountant{})
	cfg := core.DefaultConfig(4)
	plans := plancache.New(1 << 20)

	bind := func(v int) (*core.Query, plancache.Shape, plancache.Key) {
		t.Helper()
		acc := md.NewAccessor(mdCache, p)
		q, err := sql.Bind(fmt.Sprintf("SELECT count(*) FROM store_sales WHERE ss_sold_date_sk < %d", v),
			acc, md.NewColumnFactory())
		if err != nil {
			t.Fatal(err)
		}
		shape, ok := plancache.Extract(q.Tree, q.Order, q.OutCols)
		if !ok {
			t.Fatalf("< %d: not cacheable", v)
		}
		req, ok := plans.InternReq(props.Required{Dist: props.SingletonDist, Order: q.Order})
		if !ok {
			t.Fatal("InternReq refused")
		}
		return q, shape, plancache.Key{FP: shape.FP, Req: req, Buckets: shape.Buckets, MDVersion: acc.MDVersion()}
	}
	optimize := func(q *core.Query) *core.Result {
		t.Helper()
		res, err := core.Optimize(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	execute := func(plan *ops.Expr) string {
		t.Helper()
		res, err := cluster.Execute(plan, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}

	seed, shape, key := bind(300)
	res := optimize(seed)
	if explain := core.Explain(res.Plan, seed.Factory); !strings.Contains(explain, "parts=1/5") {
		t.Fatalf("the seed plan does not prune store_sales to one partition:\n%s", explain)
	}
	plan, ok := plancache.Parameterize(res.Plan, shape.Vector)
	if !ok {
		t.Fatal("Parameterize refused the seed plan")
	}
	if !plans.Admit(key, &plancache.Entry{Plan: plan, Cost: res.Cost, Stage: res.Stage, NParams: len(shape.Vector)}) {
		t.Fatal("Admit refused the seed plan")
	}

	q, shape, key := bind(495)
	e, ok := plans.Lookup(key, shape.Vector)
	if !ok {
		t.Fatal("< 495 missed the entry cached for < 300")
	}
	hit, ok := plancache.Rebind(e.Plan, shape.Vector)
	if !ok {
		t.Fatal("Rebind refused the cached plan")
	}
	if got, want := execute(hit), execute(optimize(q).Plan); got != want {
		t.Errorf("cached plan rebound to < 495 returned %s, a fresh optimization %s", got, want)
	}
}
