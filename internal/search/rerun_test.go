package search_test

import (
	"testing"

	"orca/internal/core"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/search"
	"orca/internal/sql"
	"orca/internal/tpcds"
)

// TestSearchRepeatsExactly optimizes q6 and q25 twice each in one process
// and requires the same steps per kind, peak queue, cost and plan text
// every time: a search that reuses its completed jobs must not let one
// job's leftover state reach the next.
func TestSearchRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes TPC-DS queries")
	}
	p := md.NewMemProvider()
	tpcds.BuildCatalog(p, tpcds.Scale{Factor: 1})
	cache := md.NewCache(&gpos.MemoryAccountant{})
	type outcome struct {
		steps [search.NumJobKinds]int64
		peak  int
		cost  float64
		plan  string
	}
	first := map[string]outcome{}
	for pass := 0; pass < 2; pass++ {
		for _, wq := range tpcds.Workload() {
			if wq.Name != "q6" && wq.Name != "q25" {
				continue
			}
			q, err := sql.Bind(wq.SQL, md.NewAccessor(cache, p), md.NewColumnFactory())
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Optimize(q, core.DefaultConfig(16))
			if err != nil {
				t.Fatalf("%s: %v", wq.Name, err)
			}
			got := outcome{res.Search.Steps, res.Search.PeakQueue, res.Cost, res.Plan.String()}
			if pass == 0 {
				first[wq.Name] = got
			} else if got != first[wq.Name] {
				t.Errorf("%s: second search %+v, first %+v", wq.Name, got, first[wq.Name])
			}
		}
	}
	if len(first) != 2 {
		t.Fatalf("found %d of q6 and q25 in the workload", len(first))
	}
}
