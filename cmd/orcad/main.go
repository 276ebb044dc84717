// Command orcad runs the optimizer as a long-lived service — the "Orca as
// a standalone product" deployment the paper's DXL interface enables (§3),
// hardened for overload. It serves:
//
//	POST /optimize      {"sql": "...", "timeout_ms": 500, "emit_dxl": true}
//	POST /optimize/dxl  a raw DXL query document; answers with the DXL plan
//	GET  /healthz       liveness (200 while the process runs)
//	GET  /readyz        readiness (503 once draining)
//	GET  /varz          counters: admitted, shed, degraded, panicked, ...
//
// Robustness posture (paper §6.1, lifted from per-query to per-server):
// bounded admission with queue-deadline shedding, per-request deadlines,
// load-scaled search budgets, metadata retry with backoff, per-request
// panic containment with AMPERe dumps, and graceful drain on
// SIGINT/SIGTERM.
//
// Usage:
//
//	orcad -metadata=catalog.dxl -addr=:8080
//	orcad -demo-catalog -addr=127.0.0.1:0 -addr-file=/tmp/orcad.addr
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/dxl"
	"orca/internal/fault"
	"orca/internal/md"
	"orca/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	metadata := flag.String("metadata", "", "DXL metadata file (the file-based MD provider)")
	demoCatalog := flag.Bool("demo-catalog", false, "serve the paper's demo catalog (t1, t2) instead of -metadata")
	segments := flag.Int("segments", 16, "target cluster segment count")

	maxInFlight := flag.Int("max-in-flight", 4, "requests optimizing concurrently")
	maxQueue := flag.Int("max-queue", 8, "requests allowed to wait for a slot (0 = shed immediately)")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "longest a request may wait for a slot before shedding")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline ceiling")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "in-flight drain budget on shutdown")
	minBudgetFrac := flag.Float64("min-budget-frac", 0.25, "budget fraction at full admission load (1 disables scaling)")

	memBudget := flag.Int64("memory-budget", 0, "per-request optimization memory budget in bytes (0 = unlimited)")
	maxGroups := flag.Int("max-groups", 0, "per-request Memo group cap (0 = unlimited)")
	// Unlike cmd/orca, the service never runs metadata lookups unbounded: a
	// wedged provider must cost one lookup timeout, not a concurrency slot
	// forever. Zero means "unbounded" in core.Config, so orcad defaults the
	// flag itself to a bound.
	mdTimeout := flag.Duration("md-timeout", 2*time.Second, "per-lookup metadata provider timeout (must be > 0)")
	mdRetries := flag.Int("md-retries", 3, "max attempts for transient metadata lookup failures (1 = no retry)")
	mdBackoff := flag.Duration("md-backoff", 5*time.Millisecond, "initial retry backoff (doubles per retry, jittered)")
	faults := flag.String("faults", os.Getenv("ORCA_FAULTS"),
		"fault-injection schedule, e.g. 'serve/admission/reject:error:prob=0.1:seed=7' (defaults to $ORCA_FAULTS)")
	dumpDir := flag.String("dump", "", "directory for AMPERe failure dumps")
	planCacheBytes := flag.Int64("plan-cache-bytes", serve.DefaultPlanCacheBytes,
		"parameterized plan cache byte budget (0 picks the default)")
	planCacheOff := flag.Bool("plan-cache-off", false, "disable the parameterized plan cache")
	flag.Parse()

	if *mdTimeout <= 0 {
		fatal(fmt.Errorf("-md-timeout must be > 0 (the service never runs unbounded lookups)"))
	}

	var provider md.Provider
	switch {
	case *demoCatalog:
		provider = demoProvider()
	case *metadata != "":
		p, err := dxl.FileProvider(*metadata)
		fatal(err)
		provider = p
	default:
		flag.Usage()
		os.Exit(2)
	}

	baseCfg := core.DefaultConfig(*segments)
	baseCfg.MemoryBudget = *memBudget
	baseCfg.MaxGroups = *maxGroups
	baseCfg.MDLookupTimeout = *mdTimeout
	baseCfg.MDRetry = md.RetryPolicy{MaxAttempts: *mdRetries, InitialBackoff: *mdBackoff}
	fatal(baseCfg.Validate())

	if *faults != "" {
		specs, err := fault.ParseSpecs(*faults)
		fatal(err)
		disarm, err := fault.Arm(specs)
		fatal(err)
		defer disarm()
	}

	srv, err := serve.New(serve.Config{
		Base: baseCfg,
		Admission: serve.AdmissionConfig{
			MaxInFlight:  *maxInFlight,
			MaxQueue:     *maxQueue,
			QueueTimeout: *queueTimeout,
		},
		RequestTimeout: *reqTimeout,
		MinBudgetFrac:  *minBudgetFrac,
		DumpDir:        *dumpDir,
		PlanCacheBytes: *planCacheBytes,
		PlanCacheOff:   *planCacheOff,
		Provider:       provider,
	})
	fatal(err)

	l, err := net.Listen("tcp", *addr)
	fatal(err)
	fmt.Fprintln(os.Stderr, "orcad: listening on", l.Addr())
	if *addrFile != "" {
		fatal(os.WriteFile(*addrFile, []byte(l.Addr().String()), 0o644))
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fatal(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "orcad: %v: draining (in flight finish, budget %v)\n", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		<-serveErr // Serve returns once Shutdown closed the listener
		fatal(err)
		fmt.Fprintln(os.Stderr, "orcad: drained, exiting")
	}
}

// demoProvider builds the paper's running-example catalog (§4.1): t1 and t2,
// hash-distributed on their first columns.
func demoProvider() md.Provider {
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
	return p
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "orcad:", err)
		os.Exit(1)
	}
}
