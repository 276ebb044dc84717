package orca

// Benchmarks that measure the optimizer's own time and allocations: one
// TPC-DS optimization pass (the profiling harness), the metadata cache, and
// multi-stage optimization; and the engine's, executing the TPC-DS plans. Run them with:
//
//	go test -run '^$' -bench . -benchmem .
//
// The paper's figures, the TAQO score and the rule ablation are work-unit
// measurements, not timings; cmd/benchmarks regenerates all of them.

import (
	"sync"
	"testing"

	"orca/internal/core"
	"orca/internal/engine"
	"orca/internal/experiments"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/sql"
	"orca/internal/tpcds"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env returns the shared loaded testbed (built once).
func env(tb testing.TB) *experiments.Env {
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(experiments.Config{
			Segments: 16, Scale: 1, Seed: 20140622, Budget: 4_000_000,
		})
	})
	if benchEnvErr != nil {
		tb.Fatal(benchEnvErr)
	}
	return benchEnv
}

// BenchmarkOptimizationTime regenerates the §7.2.2 prose numbers: average
// optimization time and memory with the full rule set (paper: ~4 s, ~200 MB
// on the 10 TB testbed).
func BenchmarkOptimizationTime(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.OptimizationStats()
		if err != nil {
			b.Fatal(err)
		}
		var totalNs, mem float64
		for _, r := range rows {
			totalNs += float64(r.OptTime.Nanoseconds())
			mem += float64(r.PeakMem)
		}
		b.ReportMetric(totalNs/float64(len(rows))/1e6, "avg-opt-ms")
		b.ReportMetric(mem/float64(len(rows))/1024, "avg-mem-KB")
	}
}

// BenchmarkExecuteTPCDS executes the optimal plans of the 32 TPC-DS
// queries once per op (plans are optimized before the timer starts): the
// engine's time and garbage, which share a process with the optimizer in
// the tests, the experiments and the benchmark's row oracle.
func BenchmarkExecuteTPCDS(b *testing.B) {
	e := env(b)
	var plans []*ops.Expr
	for _, wq := range tpcds.Workload() {
		res, _, err := e.OptimizeOrca(wq.SQL)
		if err != nil {
			b.Fatalf("%s: %v", wq.Name, err)
		}
		plans = append(plans, res.Plan)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			if _, err := e.Cluster.Execute(p, engine.Options{Budget: e.Cfg.Budget}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestSchedulerBusyWithinCapacity runs q25 through every stage: each run's
// Busy is its step loop's duration, inside the run's wall time, so the
// merged Busy fits inside the merged Wall and Utilization inside (0, 1].
func TestSchedulerBusyWithinCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes a TPC-DS query")
	}
	cfg := core.DefaultConfig(env(t).Cfg.Segments)
	res, err := core.Optimize(bind(t, workloadSQL(t, "q25")), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Search
	if s.Busy <= 0 || s.Busy > s.Wall {
		t.Errorf("Busy %v and Wall %v: want Busy in (0, Wall]", s.Busy, s.Wall)
	}
	if u := s.Utilization(); u <= 0 || u > 1 {
		t.Errorf("Utilization %v, want in (0, 1]", u)
	}
}

// BenchmarkMetadataCache measures the §3 metadata-cache effect: repeated
// optimization sessions against a warm vs cold cache.
func BenchmarkMetadataCache(b *testing.B) {
	e := env(b)
	sqlText := tpcds.Workload()[0].SQL
	b.Run("warm", func(b *testing.B) {
		cache := md.NewCache(e.Mem)
		for i := 0; i < b.N; i++ {
			q, err := sql.Bind(sqlText, md.NewAccessor(cache, e.Provider), md.NewColumnFactory())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Optimize(q, core.DefaultConfig(4)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := md.NewCache(e.Mem)
			q, err := sql.Bind(sqlText, md.NewAccessor(cache, e.Provider), md.NewColumnFactory())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Optimize(q, core.DefaultConfig(4)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultiStageShortCircuit measures multi-stage optimization (§4.1):
// a cheap first stage with a cost threshold vs the full single stage.
func BenchmarkMultiStageShortCircuit(b *testing.B) {
	e := env(b)
	sqlText := ""
	for _, wq := range tpcds.Workload() {
		if wq.Name == "q25" {
			sqlText = wq.SQL
		}
	}
	run := func(b *testing.B, cfg core.Config) {
		for i := 0; i < b.N; i++ {
			q, err := sql.Bind(sqlText, md.NewAccessor(e.Cache, e.Provider), md.NewColumnFactory())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Optimize(q, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("single-stage", func(b *testing.B) { run(b, core.DefaultConfig(16)) })
	b.Run("two-stage", func(b *testing.B) {
		cfg := core.DefaultConfig(16)
		cfg.Stages = []core.Stage{
			{
				Name:          "quick",
				DisabledRules: []string{"ExpandNAryJoinDP", "JoinAssociativity", "JoinCommutativity", "GbAgg2StreamAgg"},
				CostThreshold: 1e12,
			},
			{Name: "full"},
		}
		run(b, cfg)
	})
}

// BenchmarkStageResume measures the shared-Memo stage resume: because every
// stage searches the same Memo under rule-set epochs, adding a second stage
// (whether identical or widening a restricted first stage) costs close to
// nothing compared with the work the first stage already did.
func BenchmarkStageResume(b *testing.B) {
	e := env(b)
	sqlText := ""
	for _, wq := range tpcds.Workload() {
		if wq.Name == "q25" {
			sqlText = wq.SQL
		}
	}
	run := func(b *testing.B, cfg core.Config) {
		for i := 0; i < b.N; i++ {
			q, err := sql.Bind(sqlText, md.NewAccessor(e.Cache, e.Provider), md.NewColumnFactory())
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Optimize(q, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.StageRuns) > 1 {
				last := res.StageRuns[len(res.StageRuns)-1].Search
				b.ReportMetric(float64(last.TotalSteps()), "resume-steps")
			}
		}
	}
	b.Run("one-stage", func(b *testing.B) { run(b, core.DefaultConfig(16)) })
	b.Run("identical-second-stage", func(b *testing.B) {
		cfg := core.DefaultConfig(16)
		cfg.Stages = []core.Stage{{Name: "s1"}, {Name: "s2"}}
		run(b, cfg)
	})
	b.Run("widening-second-stage", func(b *testing.B) {
		cfg := core.DefaultConfig(16)
		cfg.Stages = []core.Stage{
			{Name: "greedy", DisabledRules: []string{"ExpandNAryJoinDP"}},
			{Name: "full"},
		}
		run(b, cfg)
	})
}
