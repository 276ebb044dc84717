// Command orca runs the optimizer stand-alone, the deployment mode the
// paper's architecture enables (§3): metadata comes from a DXL file (no
// database attached), the query from SQL text or a DXL query document, and
// the output is the plan explain and/or the DXL plan message.
//
// Usage:
//
//	orca -metadata=catalog.dxl -sql='SELECT ...' [-segments=16]
//	orca -metadata=catalog.dxl -query=query.dxl -emit-dxl
//	orca -demo            # run the paper's §4.1 example end to end
//
// Robustness knobs (paper §6.1): -faults (or the ORCA_FAULTS environment
// variable) arms a fault-injection schedule, -memory-budget/-max-groups cap
// the search, -md-timeout bounds metadata lookups, -md-retries/-md-backoff
// absorb transient provider failures, -deadline bounds the whole request
// (the same lifecycle cmd/orcad serves), -dump captures AMPERe
// repros of failures, and -no-degrade turns the graceful-degradation ladder
// off so injected failures surface as errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"orca/internal/ampere"
	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/dxl"
	"orca/internal/fault"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/search"
	"orca/internal/sql"
)

func main() {
	metadata := flag.String("metadata", "", "DXL metadata file (the file-based MD provider)")
	sqlText := flag.String("sql", "", "SQL query text")
	queryFile := flag.String("query", "", "DXL query document")
	segments := flag.Int("segments", 16, "target cluster segment count")
	emitDXL := flag.Bool("emit-dxl", false, "print the DXL plan message instead of the explain")
	trace := flag.Bool("trace-memo", false, "dump the final Memo")
	stats := flag.Bool("stats", false, "print job-scheduler telemetry (steps by kind, queue depth, utilization)")
	demo := flag.Bool("demo", false, "run the paper's running example (§4.1)")
	faults := flag.String("faults", os.Getenv("ORCA_FAULTS"),
		"fault-injection schedule, e.g. 'memo/insert:error:every=3,md/provider/fetch:delay=50ms' (defaults to $ORCA_FAULTS)")
	mdTimeout := flag.Duration("md-timeout", 0, "per-lookup metadata provider timeout (0 = unbounded; orcad refuses that)")
	mdRetries := flag.Int("md-retries", 1, "max attempts for transient metadata lookup failures (1 = no retry)")
	mdBackoff := flag.Duration("md-backoff", 0, "initial retry backoff (doubles per retry, jittered; 0 = policy default)")
	deadline := flag.Duration("deadline", 0, "whole-request deadline; the degradation ladder still runs on expiry (0 = none)")
	memBudget := flag.Int64("memory-budget", 0, "optimization memory budget in bytes (0 = unlimited)")
	maxGroups := flag.Int("max-groups", 0, "Memo group cap; the search keeps the best plan found when it trips (0 = unlimited)")
	noDegrade := flag.Bool("no-degrade", false, "disable the graceful-degradation ladder: fail instead of falling back")
	dumpDir := flag.String("dump", "", "directory for AMPERe failure dumps")
	flag.Parse()

	// tune applies the robustness knobs shared by the file-driven and demo
	// paths.
	tune := func(cfg *core.Config) {
		if *faults != "" {
			specs, err := fault.ParseSpecs(*faults)
			fatal(err)
			cfg.Faults = specs
		}
		cfg.MDLookupTimeout = *mdTimeout
		cfg.MDRetry = md.RetryPolicy{MaxAttempts: *mdRetries, InitialBackoff: *mdBackoff}
		cfg.MemoryBudget = *memBudget
		cfg.MaxGroups = *maxGroups
		cfg.DisableDegradation = *noDegrade
	}
	// optimize runs the same request lifecycle orcad serves: config
	// validation, then core.OptimizeContext under the -deadline.
	optimize := func(q *core.Query, cfg core.Config) (*core.Result, error) {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		ctx := context.Background()
		if *deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *deadline)
			defer cancel()
		}
		return core.OptimizeContext(ctx, q, cfg)
	}

	if *demo {
		runDemo(*segments, tune, optimize)
		return
	}
	if *metadata == "" || (*sqlText == "" && *queryFile == "") {
		flag.Usage()
		os.Exit(2)
	}

	provider, err := dxl.FileProvider(*metadata)
	fatal(err)
	cache := md.NewCache(&gpos.MemoryAccountant{})

	acc := md.NewAccessor(cache, provider)
	f := md.NewColumnFactory()
	var q *core.Query
	if *sqlText != "" {
		q, err = sql.Bind(*sqlText, acc, f)
	} else {
		var data []byte
		data, err = os.ReadFile(*queryFile)
		fatal(err)
		var doc *dxl.Node
		doc, err = dxl.ParseXML(string(data))
		fatal(err)
		q, err = dxl.ParseQuery(doc, acc, f)
	}
	fatal(err)

	cfg := core.DefaultConfig(*segments)
	tune(&cfg)
	if *dumpDir != "" {
		cfg.DumpCapture = ampere.DumpCapture(context.Background(), *dumpDir, provider)
	}
	res, err := optimize(q, cfg)
	if err != nil && *dumpDir != "" {
		// The ladder is off (or itself failed): capture the outright failure.
		ex := gpos.AsException(err)
		if ex == nil {
			ex = gpos.Wrap(err, gpos.CompOptimizer, "OptimizationFailed", "optimization failed")
		}
		if path := cfg.DumpCapture(q, cfg, ex); path != "" {
			fmt.Fprintln(os.Stderr, "orca: AMPERe dump:", path)
		}
	}
	fatal(err)
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "orca: optimization degraded to the %s rung after %s/%s: %s\n",
			res.DegradedRung, res.Failure.Comp, res.Failure.Code, res.Failure.Msg)
		if res.DumpPath != "" {
			fmt.Fprintln(os.Stderr, "orca: AMPERe dump:", res.DumpPath)
		}
	}

	if *trace {
		fmt.Println("--- Memo ---")
		if res.Memo != nil {
			fmt.Println(res.Memo.String())
		} else {
			fmt.Println("(no Memo: the plan came from the degradation ladder's minimal rung)")
		}
	}
	if *emitDXL {
		fmt.Println(dxl.SerializePlan(res.Plan).Render())
	} else {
		fmt.Printf("plan (cost=%.0f, %d groups, %d group expressions, %d rules fired, %s):\n\n",
			res.Cost, res.Groups, res.GroupExprs, res.RulesFired, res.Duration.Round(1000*1000))
		fmt.Println(core.Explain(res.Plan, q.Factory))
	}
	if *stats {
		printSearchStats(res)
	}
}

// printSearchStats prints the scheduler telemetry gathered during search:
// job steps by kind per stage and in total, the peak ready-queue depth, and
// the share of the stage's wall time spent in the step loop
// (search.Stats.Utilization).
func printSearchStats(res *core.Result) {
	fmt.Println("--- search stats ---")
	line := func(name string, s search.Stats, fired int64, timedOut bool) {
		fmt.Printf("%-12s steps:", name)
		for k := 0; k < search.NumJobKinds; k++ {
			fmt.Printf(" %s=%d", search.JobKind(k), s.Steps[k])
		}
		fmt.Printf("  total=%d  rules=%d  peak-queue=%d  util=%.0f%%",
			s.TotalSteps(), fired, s.PeakQueue, 100*s.Utilization())
		if timedOut {
			fmt.Print("  (timed out)")
		}
		fmt.Println()
	}
	for _, run := range res.StageRuns {
		name := run.Name
		if name == "" {
			name = "(stage)"
		}
		line("stage "+name, run.Search, run.RulesFired, run.TimedOut)
	}
	if len(res.StageRuns) != 1 {
		line("total", res.Search, res.RulesFired, false)
	}
}

// runDemo reproduces the paper's running example: SELECT T1.a FROM T1, T2
// WHERE T1.a = T2.b ORDER BY T1.a with T1 Hashed(a), T2 Hashed(a).
func runDemo(segments int, tune func(*core.Config), optimize func(*core.Query, core.Config) (*core.Result, error)) {
	p := md.NewMemProvider()
	md.Build(p, md.TableSpec{
		Name: "t1", Rows: 100000, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 50000, Lo: 0, Hi: 50000},
			{Name: "b", Type: base.TInt, NDV: 1000, Lo: 0, Hi: 1000},
		},
	})
	md.Build(p, md.TableSpec{
		Name: "t2", Rows: 80000, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 80000, Lo: 0, Hi: 80000},
			{Name: "b", Type: base.TInt, NDV: 40000, Lo: 0, Hi: 50000},
		},
	})
	cache := md.NewCache(&gpos.MemoryAccountant{})
	acc := md.NewAccessor(cache, p)
	f := md.NewColumnFactory()
	q, err := sql.Bind("SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b ORDER BY t1.a", acc, f)
	fatal(err)
	cfg := core.DefaultConfig(segments)
	tune(&cfg)
	res, err := optimize(q, cfg)
	fatal(err)
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "orca: optimization degraded to the %s rung after %s/%s: %s\n",
			res.DegradedRung, res.Failure.Comp, res.Failure.Code, res.Failure.Msg)
	}
	fmt.Println("Paper §4.1 running example —")
	fmt.Println("  SELECT T1.a FROM T1, T2 WHERE T1.a = T2.b ORDER BY T1.a;")
	fmt.Printf("  T1: Hashed(T1.a), T2: Hashed(T2.a), %d segments\n\n", segments)
	fmt.Println(core.Explain(res.Plan, f))
	fmt.Printf("cost=%.0f  groups=%d  group expressions=%d  rules fired=%d\n",
		res.Cost, res.Groups, res.GroupExprs, res.RulesFired)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "orca:", err)
		os.Exit(1)
	}
}
