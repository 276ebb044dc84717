package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"orca/internal/core"
	"orca/internal/experiments"
	"orca/internal/fault"
	"orca/internal/md"
	"orca/internal/serve"
	"orca/internal/tpcds"
)

// serveBenchReport is the BENCH_serve.json document: the overload-resilience
// acceptance run for the orcad service layer — a request storm at 4x the
// admission limit, latency percentiles against the configured deadline, and
// a mid-storm drain.
type serveBenchReport struct {
	Suite      string                `json:"suite"`
	Config     serveBenchConfig      `json:"config"`
	Storm      serveStormResult      `json:"storm"`
	Drain      serveDrainResult      `json:"drain"`
	Throughput serveThroughputResult `json:"sustained_throughput"`
	Note       string                `json:"note"`
}

// serveThroughputResult is the warm-cache storm variant: the same sustained
// repeated-shape load at the same admission limits, with the parameterized
// plan cache off and then on, recording the optimizations/sec the cache buys.
type serveThroughputResult struct {
	Requests           int     `json:"requests"`
	CacheOffOptsPerSec float64 `json:"cache_off_opts_per_sec"`
	CacheOnOptsPerSec  float64 `json:"cache_on_opts_per_sec"`
	CacheOnHitRatio    float64 `json:"cache_on_hit_ratio"`
	Gain               float64 `json:"throughput_gain"`
}

type serveBenchConfig struct {
	MaxInFlight      int     `json:"max_in_flight"`
	MaxQueue         int     `json:"max_queue"`
	QueueTimeoutMS   int64   `json:"queue_timeout_ms"`
	RequestTimeoutMS int64   `json:"request_timeout_ms"`
	MinBudgetFrac    float64 `json:"min_budget_frac"`
	StormRequests    int     `json:"storm_requests"`
}

type serveStormResult struct {
	Requests       int     `json:"requests"`
	OK             int     `json:"ok"`
	Degraded       int     `json:"degraded"`
	Shed           int     `json:"shed"`
	OtherStatus    int     `json:"other_status"`
	UntypedErrors  int     `json:"untyped_errors"`
	P50MS          float64 `json:"p50_ms"`
	P95MS          float64 `json:"p95_ms"`
	P99MS          float64 `json:"p99_ms"`
	DeadlineMS     int64   `json:"deadline_ms"`
	P99WithinBound bool    `json:"p99_within_bound"`
}

type serveDrainResult struct {
	InFlightAtDrain int64 `json:"in_flight_at_drain"`
	Completed       int   `json:"completed"`
	ShedDraining    int   `json:"shed_draining"`
	OtherAnswered   int   `json:"other_answered"`
	Refused         int   `json:"refused"`
	// DroppedInFlight is the drain invariant: requests the server admitted
	// but never answered (admitted - completed - failed over the whole run).
	DroppedInFlight int64 `json:"dropped_in_flight"`
	DrainMS         int64 `json:"drain_ms"`
	CleanShutdown   bool  `json:"clean_shutdown"`
}

// serveResult is one request's outcome in a storm.
type serveResult struct {
	status   int
	degraded bool
	typed    bool // 2xx, or a parseable taxonomy error body
	latency  time.Duration
}

func percentile(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds()) / 1000
}

// fireStorm launches n concurrent optimize requests at once and collects
// every outcome.
func fireStorm(url, sqlText string, n int) []serveResult {
	return fireStormVaried(url, func(int) string { return sqlText }, n)
}

// fireStormVaried is fireStorm with per-request SQL — the plan-cache storms
// vary a constant per request to prove hits parameterize rather than merely
// memoize the text.
func fireStormVaried(url string, sqlFor func(int) string, n int) []serveResult {
	results := make([]serveResult, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			body, _ := json.Marshal(map[string]any{"sql": sqlFor(i)})
			start.Wait()
			t0 := time.Now()
			resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
			results[i].latency = time.Since(t0)
			if err != nil {
				results[i].status = -1 // connection-level drop
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			results[i].status = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				var out struct {
					Degraded bool `json:"degraded"`
				}
				results[i].typed = json.Unmarshal(data, &out) == nil
				results[i].degraded = out.Degraded
				return
			}
			var wrap struct {
				Error *struct {
					Component string `json:"component"`
					Code      string `json:"code"`
				} `json:"error"`
			}
			results[i].typed = json.Unmarshal(data, &wrap) == nil &&
				wrap.Error != nil && wrap.Error.Component != "" && wrap.Error.Code != ""
		}(i)
	}
	start.Done()
	done.Wait()
	return results
}

// serveExp measures the service layer's overload behavior: a storm at 4x the
// admission limit against a live server (every response must be a plan or a
// typed taxonomy error, p99 bounded by the request deadline plus queue wait),
// then a second storm interrupted by a graceful drain (nothing in flight may
// be dropped). In -json mode the report is written to BENCH_serve.json.
func serveExp(env *experiments.Env, jsonOut bool) error {
	header("orcad service: admission storm, deadline bound, graceful drain")

	var sqlText string
	for _, wq := range tpcds.Workload() {
		if wq.Name == "q3" {
			sqlText = wq.SQL
		}
	}

	base := core.DefaultConfig(env.Cfg.Segments)
	base.MDLookupTimeout = 2 * time.Second
	base.MDRetry = md.RetryPolicy{MaxAttempts: 3, InitialBackoff: 2 * time.Millisecond}
	// Tight enough that the load-scaled budget (x0.25 at full admission load)
	// forces some storm requests onto the degradation ladder, demonstrating
	// shed AND degrade under overload.
	base.MaxGroups = 16

	// The warm-cache TPC-DS queries optimize in microseconds, which no storm
	// can overload; the serve/handler/slow fault point stands in for the
	// expensive queries a real mixed workload contains (150ms on half the
	// admitted requests, seeded for reproducibility).
	specs, err := fault.ParseSpecs("serve/handler/slow:delay=150ms:prob=0.5:seed=20140622")
	if err != nil {
		return err
	}
	disarm, err := fault.Arm(specs)
	if err != nil {
		return err
	}
	defer disarm()

	cfg := serve.Config{
		Base: base,
		Admission: serve.AdmissionConfig{
			MaxInFlight:  2,
			MaxQueue:     2,
			QueueTimeout: 250 * time.Millisecond,
		},
		RequestTimeout: 2 * time.Second,
		MinBudgetFrac:  0.25,
		Provider:       env.Provider,
		Cache:          env.Cache,
	}
	capacity := cfg.Admission.MaxInFlight + cfg.Admission.MaxQueue
	storm := 4 * capacity

	report := serveBenchReport{
		Suite: "serve-overload",
		Config: serveBenchConfig{
			MaxInFlight:      cfg.Admission.MaxInFlight,
			MaxQueue:         cfg.Admission.MaxQueue,
			QueueTimeoutMS:   cfg.Admission.QueueTimeout.Milliseconds(),
			RequestTimeoutMS: cfg.RequestTimeout.Milliseconds(),
			MinBudgetFrac:    cfg.MinBudgetFrac,
			StormRequests:    storm,
		},
		Note: "storm fires 4x the admission capacity at once; the bound on p99 " +
			"is request timeout + queue timeout + 500ms scheduling slack. drain " +
			"interrupts a second storm with Shutdown mid-flight.",
	}

	// --- Storm phase ---
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ListenAndServe("127.0.0.1:0") }()
	addr := ""
	for i := 0; i < 500 && addr == ""; i++ {
		time.Sleep(2 * time.Millisecond)
		addr = srv.BoundAddr()
	}
	if addr == "" {
		return fmt.Errorf("serve experiment: server never bound")
	}
	url := "http://" + addr

	results := fireStorm(url, sqlText, storm)
	var lat []time.Duration
	for _, r := range results {
		lat = append(lat, r.latency)
		switch {
		case r.status == http.StatusOK:
			report.Storm.OK++
			if r.degraded {
				report.Storm.Degraded++
			}
		case r.status == http.StatusTooManyRequests:
			report.Storm.Shed++
		default:
			report.Storm.OtherStatus++
		}
		if !r.typed {
			report.Storm.UntypedErrors++
		}
	}
	report.Storm.Requests = storm
	report.Storm.P50MS = percentile(lat, 0.50)
	report.Storm.P95MS = percentile(lat, 0.95)
	report.Storm.P99MS = percentile(lat, 0.99)
	report.Storm.DeadlineMS = cfg.RequestTimeout.Milliseconds()
	bound := cfg.RequestTimeout + cfg.Admission.QueueTimeout + 500*time.Millisecond
	report.Storm.P99WithinBound = report.Storm.P99MS <= float64(bound.Milliseconds())

	fmt.Printf("storm: %d requests at 4x capacity (%d in flight + %d queued)\n",
		storm, cfg.Admission.MaxInFlight, cfg.Admission.MaxQueue)
	fmt.Printf("  ok=%d (degraded %d)  shed=%d  other=%d  untyped=%d\n",
		report.Storm.OK, report.Storm.Degraded, report.Storm.Shed,
		report.Storm.OtherStatus, report.Storm.UntypedErrors)
	fmt.Printf("  latency p50=%.1fms p95=%.1fms p99=%.1fms (bound %dms: %v)\n",
		report.Storm.P50MS, report.Storm.P95MS, report.Storm.P99MS,
		bound.Milliseconds(), report.Storm.P99WithinBound)

	// --- Drain phase: SIGTERM mid-storm (Shutdown is orcad's SIGTERM path) ---
	drainResults := make(chan []serveResult, 1)
	go func() { drainResults <- fireStorm(url, sqlText, storm) }()
	for i := 0; i < 500 && srv.Vars().InFlight.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	report.Drain.InFlightAtDrain = srv.Vars().InFlight.Load()
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	report.Drain.DrainMS = time.Since(t0).Milliseconds()
	report.Drain.CleanShutdown = shutdownErr == nil
	<-serveDone
	for _, r := range <-drainResults {
		switch {
		case r.status == http.StatusOK:
			report.Drain.Completed++
		case r.status == http.StatusServiceUnavailable || r.status == http.StatusTooManyRequests:
			report.Drain.ShedDraining++
		case r.status == -1:
			// Connection refused once the listener closed — equivalent to a
			// shed from the client's perspective, and never an admitted
			// request.
			report.Drain.Refused++
		default:
			report.Drain.OtherAnswered++
		}
	}
	snap := srv.Vars().Snapshot()
	report.Drain.DroppedInFlight = snap["admitted"] - snap["completed"] - snap["failed"]

	fmt.Printf("drain: shutdown with %d in flight: completed=%d shed=%d refused=%d other=%d dropped=%d in %dms (clean=%v)\n\n",
		report.Drain.InFlightAtDrain, report.Drain.Completed, report.Drain.ShedDraining,
		report.Drain.Refused, report.Drain.OtherAnswered, report.Drain.DroppedInFlight,
		report.Drain.DrainMS, report.Drain.CleanShutdown)

	// --- Sustained-throughput phase: the warm-cache storm variant ---
	// The slow-handler fault stood in for expensive queries above; here the
	// comparison is real search cost vs cache rebind, so it comes off.
	disarm()
	report.Throughput, err = serveThroughputPhase(cfg, sqlText, 4*storm)
	if err != nil {
		return err
	}
	fmt.Printf("sustained storm (%d requests, same admission limits): %.1f optimizations/sec cache-off, %.1f cache-on (%.1fx, hit ratio %.1f%%)\n\n",
		report.Throughput.Requests, report.Throughput.CacheOffOptsPerSec,
		report.Throughput.CacheOnOptsPerSec, report.Throughput.Gain,
		100*report.Throughput.CacheOnHitRatio)

	if report.Storm.UntypedErrors > 0 || report.Storm.OtherStatus > 0 {
		return fmt.Errorf("serve experiment: %d untyped and %d out-of-taxonomy responses",
			report.Storm.UntypedErrors, report.Storm.OtherStatus)
	}
	if report.Drain.DroppedInFlight != 0 || !report.Drain.CleanShutdown {
		return fmt.Errorf("serve experiment: drain dropped %d admitted requests (clean=%v, err=%v)",
			report.Drain.DroppedInFlight, report.Drain.CleanShutdown, shutdownErr)
	}

	if err := writeArtifact(jsonOut, "BENCH_serve.json", &report); err != nil {
		return err
	}
	return nil
}

// serveThroughputPhase runs the same repeated-shape storm against two fresh
// servers differing only in PlanCacheOff, with generous shed-free queueing
// so throughput measures optimization work, not admission policy.
func serveThroughputPhase(cfg serve.Config, sqlText string, n int) (serveThroughputResult, error) {
	out := serveThroughputResult{Requests: n}
	run := func(cacheOff bool) (float64, float64, error) {
		c := cfg
		c.PlanCacheOff = cacheOff
		// The overload knobs above exist to force shed/degrade; degraded
		// plans are never cached, so lift them — same MaxInFlight, but
		// shed-free queueing and full budgets.
		c.Base.MaxGroups = 0
		c.MinBudgetFrac = 1
		c.Admission.MaxQueue = n
		c.Admission.QueueTimeout = 60 * time.Second
		c.RequestTimeout = 60 * time.Second
		srv, url, stop, err := bootServer(c)
		if err != nil {
			return 0, 0, err
		}
		defer stop()
		t0 := time.Now()
		results := fireStorm(url, sqlText, n)
		wall := time.Since(t0)
		ok := 0
		for _, r := range results {
			if r.status == http.StatusOK {
				ok++
			}
		}
		if ok != n {
			return 0, 0, fmt.Errorf("throughput phase (cacheOff=%v): %d/%d failed", cacheOff, n-ok, n)
		}
		st := srv.PlanCache().Stats()
		ratio := 0.0
		if st.Hits+st.Misses > 0 {
			ratio = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		return float64(ok) / wall.Seconds(), ratio, nil
	}
	var err error
	if out.CacheOffOptsPerSec, _, err = run(true); err != nil {
		return out, err
	}
	if out.CacheOnOptsPerSec, out.CacheOnHitRatio, err = run(false); err != nil {
		return out, err
	}
	if out.CacheOffOptsPerSec > 0 {
		out.Gain = out.CacheOnOptsPerSec / out.CacheOffOptsPerSec
	}
	return out, nil
}
