package engine_test

import (
	"testing"

	"orca/internal/engine"
	"orca/internal/experiments"
	"orca/internal/tpcds"
)

// TestExecutionLeavesStoredRowsUnchanged executes the optimal plans of all
// 32 TPC-DS queries and requires every stored table to hash as before:
// scans emit stored rows themselves, so an operator that wrote into an
// input row would corrupt the tables.
func TestExecutionLeavesStoredRowsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes and executes the TPC-DS workload")
	}
	env, err := experiments.NewEnv(experiments.Config{Segments: 16, Scale: 1, Seed: 20140622, Budget: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	before := env.Cluster.RowDigests()
	for _, wq := range tpcds.Workload() {
		res, _, err := env.OptimizeOrca(wq.SQL)
		if err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
		if _, err := env.Cluster.Execute(res.Plan, engine.Options{Budget: env.Cfg.Budget}); err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
	}
	after := env.Cluster.RowDigests()
	if len(after) != len(before) || len(before) == 0 {
		t.Fatalf("%d tables before execution, %d after", len(before), len(after))
	}
	for name, h := range before {
		if after[name] != h {
			t.Errorf("table %s changed during execution", name)
		}
	}
}
