package tpcds

import (
	"sync"
	"testing"

	"orca/internal/core"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/sql"
)

// TestParallelOptimizationDeterministicCost optimizes a join-heavy query as
// concurrent requests do: each search runs on its own goroutine with its own
// Memo, all sharing one metadata cache. The best plan cost must be identical
// across goroutines and to a search run alone — plan choice is a pure
// function of the query, not of what else is optimizing.
func TestParallelOptimizationDeterministicCost(t *testing.T) {
	p := md.NewMemProvider()
	BuildCatalog(p, Scale{Factor: 1})
	cache := md.NewCache(&gpos.MemoryAccountant{})

	var q25 string
	for _, wq := range Workload() {
		if wq.Name == "q25" {
			q25 = wq.SQL
		}
	}
	optimize := func() (float64, error) {
		q, err := sql.Bind(q25, md.NewAccessor(cache, p), md.NewColumnFactory())
		if err != nil {
			return 0, err
		}
		res, err := core.Optimize(q, core.DefaultConfig(16))
		if err != nil {
			return 0, err
		}
		return res.Cost, nil
	}

	alone, err := optimize()
	if err != nil {
		t.Fatal(err)
	}
	const requests = 3
	costs := make([]float64, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := range costs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			costs[i], errs[i] = optimize()
		}()
	}
	wg.Wait()
	for i, c := range costs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if c != alone {
			t.Errorf("request %d: best cost %g, want %g as optimized alone", i, c, alone)
		}
	}
}
