// Command benchmarks regenerates the paper's evaluation tables and figures
// (§7) on the simulated testbed and prints them in the paper's terms.
//
// Usage:
//
//	benchmarks -experiment=fig12|opttime|fig13|fig14|fig15|taqo|rules|search|all \
//	           [-segments=16] [-scale=2] [-budget=8000000] [-seed=N] [-json]
//
// With -json, experiments that define a machine-readable artifact write it to
// the working directory (rules → BENCH_rules.json, search →
// BENCH_search.json). The service, plan-cache and Memo-contention numbers
// come from the benchmark of record, `go run ./benchmark`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"orca/internal/experiments"
	"orca/internal/rival"
)

func main() {
	experiment := flag.String("experiment", "all", "fig12, opttime, fig13, fig14, fig15, taqo, rules, search or all")
	segments := flag.Int("segments", 16, "number of cluster segments")
	scale := flag.Int("scale", 2, "data scale factor")
	budget := flag.Int64("budget", 8_000_000, "execution budget (work units) standing in for the paper's 10000s timeout")
	seed := flag.Uint64("seed", 20140622, "data generation seed")
	samples := flag.Int("taqo-samples", 12, "plans sampled per query for TAQO")
	jsonOut := flag.Bool("json", false, "also write machine-readable artifacts (rules → BENCH_rules.json, search → BENCH_search.json)")
	flag.Parse()

	cfg := experiments.Config{Segments: *segments, Scale: *scale, Seed: *seed, Budget: *budget}
	fmt.Printf("# Orca reproduction benchmark harness\n")
	fmt.Printf("# segments=%d scale=%d budget=%d seed=%d\n\n", cfg.Segments, cfg.Scale, cfg.Budget, cfg.Seed)

	env, err := experiments.NewEnv(cfg)
	fatal(err)

	run := func(name string, f func(*experiments.Env) error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		fatal(f(env))
	}

	run("fig12", fig12)
	run("opttime", opttime)
	run("fig13", func(e *experiments.Env) error { return figRival(e, rival.Impala(), "Figure 13: HAWQ vs Impala") })
	run("fig14", func(e *experiments.Env) error { return figRival(e, rival.Stinger(), "Figure 14: HAWQ vs Stinger") })
	run("fig15", fig15)
	run("taqo", func(e *experiments.Env) error { return taqoExp(e, *samples) })
	run("rules", func(e *experiments.Env) error { return rulesExp(e, *jsonOut) })
	run("search", func(e *experiments.Env) error { return searchExp(e, *jsonOut) })
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

// writeArtifact writes an experiment's machine-readable report to the
// working directory when -json was given.
func writeArtifact(jsonOut bool, name string, report any) error {
	if !jsonOut {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote " + name)
	return nil
}

func header(title string) {
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

func fig12(env *experiments.Env) error {
	header("Figure 12: Speed-up ratio of Orca vs Planner (TPC-DS)")
	rows, err := env.Figure12()
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %12s %12s %10s %s\n", "query", "orca-work", "planner-work", "speed-up", "")
	for _, r := range rows {
		mark := ""
		if r.PlannerTimedOut {
			mark = "  (timeout-capped, ≥)"
		}
		fmt.Printf("%-6s %12d %12d %9.1fx%s\n", r.Query, r.OrcaWork, r.PlannerWork, r.Speedup, mark)
	}
	s := experiments.Summarize(rows)
	fmt.Printf("\nsuite speed-up: %.1fx   geomean: %.1fx   same-or-better: %.0f%%   timeout-capped: %d/%d\n",
		s.SuiteSpeedup, s.GeoMeanSpeedup, 100*s.SameOrBetterFrac, s.TimeoutCapped, s.Queries)
	fmt.Printf("paper: 5x suite-wide, ~80%% same-or-better, 14/111 capped at 1000x\n\n")
	return nil
}

func opttime(env *experiments.Env) error {
	header("§7.2.2: optimization time and memory footprint (full rule set)")
	rows, err := env.OptimizationStats()
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %10s %8s %8s %8s %12s\n", "query", "opt-time", "groups", "gexprs", "rules", "peak-mem")
	var totalTime float64
	var totalMem int64
	for _, r := range rows {
		fmt.Printf("%-6s %10s %8d %8d %8d %12d\n",
			r.Query, r.OptTime.Round(1000*1000), r.Groups, r.GroupExprs, r.RulesFired, r.PeakMem)
		totalTime += r.OptTime.Seconds()
		totalMem += r.PeakMem
	}
	n := float64(len(rows))
	fmt.Printf("\naverage optimization time: %.1f ms   average accounted memory: %.1f KB\n",
		1000*totalTime/n, float64(totalMem)/n/1024)
	fmt.Printf("paper (10TB testbed, 111 queries): ~4 s and ~200 MB average\n\n")
	return nil
}

func figRival(env *experiments.Env, p *rival.Profile, title string) error {
	header(title + " (TPC-DS subset the rival can plan)")
	rows, err := env.FigureRival(p)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %12s %12s %10s %s\n", "query", "hawq-work", p.Name+"-work", "speed-up", "")
	wins := 0
	for _, r := range rows {
		mark := ""
		if r.RivalOOM {
			mark = "  (*) out of memory"
		} else if r.RivalTimedOut {
			mark = "  (timeout-capped)"
		}
		if r.Speedup >= 1 {
			wins++
		}
		fmt.Printf("%-6s %12d %12d %9.1fx%s\n", r.Query, r.HAWQWork, r.RivalWork, r.Speedup, mark)
	}
	fmt.Printf("\nHAWQ wins %d/%d; paper reports avg 6x vs Impala, 21x vs Stinger\n\n", wins, len(rows))
	return nil
}

func fig15(env *experiments.Env) error {
	header("Figure 15: TPC-DS query support (111-query expansion)")
	rows, err := env.Figure15()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %10s %10s\n", "system", "optimize", "execute")
	for _, r := range rows {
		fmt.Printf("%-8s %10d %10d\n", r.System, r.Optimize, r.Execute)
	}
	fmt.Printf("\npaper: HAWQ 111/111, Impala 31/20, Presto 12/0, Stinger 19/19\n\n")
	return nil
}

func taqoExp(env *experiments.Env, samples int) error {
	header("§6.2 TAQO: cost-model accuracy (uniform plan sampling)")
	rows, err := env.TAQO([]string{"q3", "q19", "q25", "q43", "q71", "q79"}, samples)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %12s %10s %12s\n", "query", "correlation", "sampled", "plan-space")
	var sum float64
	for _, r := range rows {
		fmt.Printf("%-6s %12.3f %10d %12.0f\n", r.Query, r.Correlation, r.Sampled, r.SpaceSize)
		sum += r.Correlation
	}
	fmt.Printf("\nmean correlation: %.3f (1.0 = cost model orders all plan pairs correctly)\n\n",
		sum/float64(len(rows)))
	return nil
}
