package orca

// One benchmark per table/figure of the paper's evaluation (§7), plus
// ablation benches for the design choices DESIGN.md calls out. Regenerate
// everything with:
//
//	go test -bench=. -benchmem
//
// cmd/benchmarks prints the same experiments as paper-style tables.

import (
	"sync"
	"testing"

	"orca/internal/core"
	"orca/internal/engine"
	"orca/internal/experiments"
	"orca/internal/md"
	"orca/internal/rival"
	"orca/internal/sql"
	"orca/internal/tpcds"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env returns the shared loaded testbed (built once).
func env(b *testing.B) *experiments.Env {
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(experiments.Config{
			Segments: 16, Scale: 1, Seed: 20140622, Budget: 4_000_000,
		})
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// BenchmarkFigure12 regenerates Figure 12: Orca vs the legacy Planner across
// the TPC-DS workload (paper: 5x suite-wide, 14 queries capped at 1000x).
func BenchmarkFigure12(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		s := experiments.Summarize(rows)
		b.ReportMetric(s.SuiteSpeedup, "suite-speedup-x")
		b.ReportMetric(100*s.SameOrBetterFrac, "same-or-better-%")
		b.ReportMetric(float64(s.TimeoutCapped), "timeout-capped")
	}
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

// BenchmarkFigure13 regenerates Figure 13: HAWQ vs the Impala simulation
// (paper: avg 6x, several out-of-memory bars).
func BenchmarkFigure13(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.FigureRival(rival.Impala())
		if err != nil {
			b.Fatal(err)
		}
		reportRival(b, rows)
	}
}

// BenchmarkFigure14 regenerates Figure 14: HAWQ vs the Stinger simulation
// (paper: avg 21x).
func BenchmarkFigure14(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.FigureRival(rival.Stinger())
		if err != nil {
			b.Fatal(err)
		}
		reportRival(b, rows)
	}
}

func reportRival(b *testing.B, rows []experiments.RivalRow) {
	b.Helper()
	var sum float64
	oom := 0
	for _, r := range rows {
		sum += r.Speedup
		if r.RivalOOM {
			oom++
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(sum/float64(len(rows)), "avg-speedup-x")
	}
	b.ReportMetric(float64(oom), "rival-oom")
	b.ReportMetric(float64(len(rows)), "queries")
}

// BenchmarkFigure15 regenerates Figure 15: TPC-DS support counts over the
// 111-query expansion (paper: HAWQ 111/111, Impala 31/20, Presto 12/0,
// Stinger 19/19).
func BenchmarkFigure15(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.Figure15()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Optimize), r.System+"-optimize")
			b.ReportMetric(float64(r.Execute), r.System+"-execute")
		}
	}
}

// BenchmarkTAQO regenerates the §6.2 cost-model accuracy measurement.
func BenchmarkTAQO(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.TAQO([]string{"q3", "q19", "q43"}, 10)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.Correlation
		}
		b.ReportMetric(sum/float64(len(rows)), "correlation")
	}
}

// ---------------------------------------------------------------------------
// Ablations: switch individual Orca capabilities off and measure the damage
// on a query that depends on them.

// ablationWork optimizes one workload query with the given rules disabled
// and returns the executed work.
func ablationWork(b *testing.B, e *experiments.Env, queryName string, disabled []string) int64 {
	b.Helper()
	var sqlText string
	for _, wq := range tpcds.Workload() {
		if wq.Name == queryName {
			sqlText = wq.SQL
		}
	}
	q, err := sql.Bind(sqlText, md.NewAccessor(e.Cache, e.Provider), md.NewColumnFactory())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(e.Cfg.Segments)
	cfg.DisabledRules = disabled
	res, err := core.Optimize(q, cfg)
	if err != nil {
		b.Fatal(err)
	}
	out, err := e.Cluster.Execute(res.Plan, engine.Options{Budget: e.Cfg.Budget})
	if err != nil {
		b.Fatal(err)
	}
	if out.TimedOut {
		return e.Cfg.Budget
	}
	return out.Stats.Work(3)
}

// BenchmarkAblationJoinOrdering disables the cost-based join-ordering rules,
// leaving only the literal left-deep expansion, on the paper's §7.3.2
// join-order example (q25).
func BenchmarkAblationJoinOrdering(b *testing.B) {
	e := env(b)
	disabled := []string{"ExpandNAryJoinDP", "ExpandNAryJoinGreedy", "JoinCommutativity", "JoinAssociativity"}
	for i := 0; i < b.N; i++ {
		full := ablationWork(b, e, "q25", nil)
		crippled := ablationWork(b, e, "q25", disabled)
		b.ReportMetric(float64(crippled)/float64(full), "literal-vs-dp-x")
	}
}

// BenchmarkAblationTwoStageAgg disables the MPP two-stage aggregation.
func BenchmarkAblationTwoStageAgg(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		full := ablationWork(b, e, "q43", nil)
		crippled := ablationWork(b, e, "q43", []string{"GbAgg2TwoStageAgg"})
		b.ReportMetric(float64(crippled)/float64(full), "single-vs-two-stage-x")
	}
}

// BenchmarkAblationIndexScan disables index scans on a point-lookup query.
func BenchmarkAblationIndexScan(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		full := ablationWork(b, e, "q82", nil)
		crippled := ablationWork(b, e, "q82", []string{"Select2IndexScan"})
		b.ReportMetric(float64(crippled)/float64(full), "noindex-vs-index-x")
	}
}

// BenchmarkSchedulerWorkers measures parallel optimization (paper §4.2) by
// job-scheduler worker count on a join-heavy query.
func BenchmarkSchedulerWorkers(b *testing.B) {
	e := env(b)
	var sqlText string
	for _, wq := range tpcds.Workload() {
		if wq.Name == "q25" {
			sqlText = wq.SQL
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			cfg := core.DefaultConfig(e.Cfg.Segments)
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				q, err := sql.Bind(sqlText, md.NewAccessor(e.Cache, e.Provider), md.NewColumnFactory())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Optimize(q, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
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

func benchName(prefix string, n int) string {
	return prefix + "-" + string(rune('0'+n))
}
