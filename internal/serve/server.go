// Package serve is the optimizer-as-a-service front end (cmd/orcad): a
// long-running HTTP server that accepts queries as JSON (SQL text) or raw
// DXL query documents, runs core.Optimize with the degradation ladder as its
// error boundary, and returns plans. The paper's premise — DXL makes Orca a
// standalone component (§3) — makes the optimizer a network service; this
// package makes it an overload-resilient one:
//
//   - admission control: a bounded concurrency semaphore plus a bounded wait
//     queue with deadline shedding, so a storm of requests costs a bounded
//     amount of optimization work and everyone else gets a fast 429 with
//     Retry-After;
//   - per-request deadlines and budgets: every request runs under a context
//     deadline and a core.Config derived from the server-wide baseline,
//     with search budgets scaled down as load rises so hard queries degrade
//     earlier instead of monopolizing the process;
//   - retry with backoff: transient metadata-provider failures are absorbed
//     by md.RetryPolicy (exponential backoff with jitter, budgeted by the
//     request deadline);
//   - per-request panic containment: a panicking request produces a 500
//     with a structured taxonomy body and an AMPERe dump, never a dead
//     process;
//   - graceful drain: shutdown stops admitting, lets in-flight requests
//     finish under a timeout, and reports the transition via /readyz.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"orca/internal/core"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/plancache"
)

// Config assembles a Server.
type Config struct {
	// Base is the server-wide baseline optimizer configuration; every
	// request derives its own core.Config from it (budgets scaled by load).
	// It is validated by New.
	Base core.Config
	// Admission sizes the admission controller.
	Admission AdmissionConfig
	// RequestTimeout is the default (and maximum) per-request deadline.
	// A client may request a shorter one via timeout_ms; longer requests
	// are clamped. Defaults to 10s.
	RequestTimeout time.Duration
	// MinBudgetFrac is the floor of load-based budget scaling: at full
	// admission load a request runs with this fraction of the baseline
	// budgets. 0 means 0.25; 1 disables scaling; New rejects values
	// outside [0, 1].
	MinBudgetFrac float64
	// DumpDir, when set, receives AMPERe dumps for degraded and panicked
	// requests.
	DumpDir string

	// PlanCacheBytes bounds the parameterized plan cache's memory; 0 picks
	// DefaultPlanCacheBytes and New rejects a negative value. See
	// internal/plancache.
	PlanCacheBytes int64
	// PlanCacheOff disables the plan cache: every request pays for a full
	// optimization and no X-Orca-Cache header is emitted.
	PlanCacheOff bool

	// Provider is the metadata backend shared by all requests.
	Provider md.Provider
	// Cache is the shared metadata cache; New creates one when nil.
	Cache *md.Cache
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return 10 * time.Second
	}
	return c.RequestTimeout
}

// DefaultPlanCacheBytes is the plan cache's byte budget when the host does
// not set one: big enough for thousands of parameterized plans, small next
// to the Memo budgets of the optimizations it avoids.
const DefaultPlanCacheBytes = 64 << 20

func (c Config) planCacheBytes() int64 {
	if c.PlanCacheOff {
		return 0
	}
	if c.PlanCacheBytes == 0 {
		return DefaultPlanCacheBytes
	}
	return c.PlanCacheBytes
}

func (c Config) minBudgetFrac() float64 {
	if c.MinBudgetFrac == 0 {
		return 0.25
	}
	return c.MinBudgetFrac
}

// Server is one optimizer service instance. Create with New, expose with
// Serve (or Handler for in-process tests), stop with
// Shutdown.
type Server struct {
	cfg    Config
	cache  *md.Cache
	plans  *plancache.Cache
	flight *plancache.FlightGroup
	vars   *Counters
	adm    *admission
	mux    *http.ServeMux

	draining  chan struct{}
	drainOnce sync.Once

	mu      sync.Mutex
	httpSrv *http.Server
}

// New validates the configuration and assembles a server.
func New(cfg Config) (*Server, error) {
	if cfg.Provider == nil {
		return nil, fmt.Errorf("serve: config: Provider is required")
	}
	if err := cfg.Base.Validate(); err != nil {
		return nil, fmt.Errorf("serve: base config: %w", err)
	}
	if cfg.Admission.MaxInFlight < 0 || cfg.Admission.MaxQueue < 0 {
		return nil, fmt.Errorf("serve: config: admission sizes (%d in-flight, %d queued) must be >= 0",
			cfg.Admission.MaxInFlight, cfg.Admission.MaxQueue)
	}
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("serve: config: RequestTimeout = %v; want >= 0", cfg.RequestTimeout)
	}
	if !(cfg.MinBudgetFrac >= 0 && cfg.MinBudgetFrac <= 1) {
		return nil, fmt.Errorf("serve: config: MinBudgetFrac = %v; want in [0, 1] (0 means 0.25)", cfg.MinBudgetFrac)
	}
	if cfg.PlanCacheBytes < 0 {
		return nil, fmt.Errorf("serve: config: PlanCacheBytes = %d; want >= 0 (0 means %d)",
			cfg.PlanCacheBytes, DefaultPlanCacheBytes)
	}
	cache := cfg.Cache
	if cache == nil {
		cache = md.NewCache(&gpos.MemoryAccountant{})
	}
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		plans:    plancache.New(cfg.planCacheBytes()),
		flight:   plancache.NewFlightGroup(),
		vars:     &Counters{},
		draining: make(chan struct{}),
		mux:      http.NewServeMux(),
	}
	s.adm = newAdmission(cfg.Admission, s.draining, s.vars)
	s.mux.HandleFunc("/optimize", s.handleOptimizeJSON)
	s.mux.HandleFunc("/optimize/dxl", s.handleOptimizeDXL)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/varz", s.handleVarz)
	return s, nil
}

// Handler exposes the server's routes for in-process use (httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Vars exposes the server's counters for tests and the benchmark harness.
func (s *Server) Vars() *Counters { return s.vars }

// PlanCache exposes the parameterized plan cache for tests and tooling.
func (s *Server) PlanCache() *plancache.Cache { return s.plans }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Serve accepts connections on l until Shutdown. A Shutdown-initiated stop
// returns nil.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown drains the server gracefully: admission stops accepting (new
// requests shed with 503), /readyz flips to 503 so load balancers rotate
// the instance out, and in-flight requests run to completion under ctx's
// deadline. It returns nil once every admitted request has finished, or
// ctx's error if the drain budget expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.draining) })
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
	}
	// In handler-only deployments (tests, embedded use) — and as a belt over
	// http.Server.Shutdown's connection-level accounting — wait until no
	// request holds a slot.
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.vars.InFlight.Load() == 0 && s.vars.Queued.Load() == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return fmt.Errorf("serve: drain incomplete: %d in flight, %d queued: %w",
				s.vars.InFlight.Load(), s.vars.Queued.Load(), ctx.Err())
		}
	}
}

// handleHealthz is liveness: 200 as long as the process can answer at all,
// draining included.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while admitting, 503 once draining so load
// balancers stop routing here before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleVarz exposes the counters as flat JSON, plan-cache counters merged
// in under the plan_cache_ prefix.
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	vars := s.vars.Snapshot()
	st := s.plans.Stats()
	vars["plan_cache_hits"] = st.Hits
	vars["plan_cache_misses"] = st.Misses
	vars["plan_cache_evictions"] = st.Evictions
	vars["plan_cache_bytes"] = st.Bytes
	vars["plan_cache_entries"] = st.Entries
	writeJSON(w, http.StatusOK, vars)
}

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already written; an encode error here can only be
	// a dead client, which has no recourse.
	_ = enc.Encode(v)
}

// writeAPIError writes the taxonomy body with its status and Retry-After.
func writeAPIError(w http.ResponseWriter, apiErr *APIError) {
	if apiErr.RetryAfterMS > 0 {
		secs := (apiErr.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, apiErr.Status, map[string]*APIError{"error": apiErr})
}
