package tpcds

import (
	"reflect"
	"testing"

	"orca/internal/core"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/sql"
)

// TestOptimizeLeavesCatalogBucketsUnchanged optimizes the 32 queries and
// then holds every histogram the metadata cache serves to a copy taken
// before: statistics derivation shares the catalog's buckets, so a write
// into a derived histogram's buckets would change the catalog for every
// later request.
func TestOptimizeLeavesCatalogBucketsUnchanged(t *testing.T) {
	p := md.NewMemProvider()
	BuildCatalog(p, Scale{Factor: 1})
	snapshot := map[md.MDId][][]md.Bucket{}
	for _, obj := range p.Objects() {
		if rs, ok := obj.(*md.RelStats); ok {
			for _, cs := range rs.Cols {
				snapshot[rs.Mdid] = append(snapshot[rs.Mdid], append([]md.Bucket(nil), cs.Buckets...))
			}
		}
	}
	cache := md.NewCache(&gpos.MemoryAccountant{})
	for _, wq := range Workload() {
		q, err := sql.Bind(wq.SQL, md.NewAccessor(cache, p), md.NewColumnFactory())
		if err != nil {
			t.Fatalf("%s: bind: %v", wq.Name, err)
		}
		if _, err := core.Optimize(q, core.DefaultConfig(4)); err != nil {
			t.Fatalf("%s: optimize: %v", wq.Name, err)
		}
	}
	checked := 0
	for id, want := range snapshot {
		obj, ok := cache.Lookup(id)
		if !ok {
			continue
		}
		checked++
		for i, cs := range obj.(*md.RelStats).Cols {
			if !reflect.DeepEqual(cs.Buckets, want[i]) {
				t.Errorf("%s column %s: the cached buckets changed while optimizing", id, cs.ColName)
			}
		}
	}
	if checked == 0 {
		t.Fatal("the metadata cache holds no relation statistics: nothing was checked")
	}
	t.Logf("%d relations' statistics checked", checked)
}
