package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"orca/internal/core"
	"orca/internal/experiments"
	"orca/internal/serve"
)

// cacheBenchReport is the BENCH_cache.json document: the parameterized plan
// cache's acceptance run. A repeated-shape storm — the same query shape with
// per-request constants — is fired twice at identical admission limits:
// cold (plan cache off, every request pays for search) and warm (cache on,
// primed, every request rebinds a cached plan). The acceptance floor is a
// >= 10x p50 latency drop and >= 90% hit ratio, plus zero stale hits after a
// metadata version bump.
type cacheBenchReport struct {
	Suite   string           `json:"suite"`
	Config  cacheBenchConfig `json:"config"`
	Cold    cachePhaseResult `json:"cold"`
	Warm    cachePhaseResult `json:"warm"`
	Warmup  cacheWarmupStats `json:"warm_cache_stats"`
	P50Gain float64          `json:"p50_speedup"`
	Stale   cacheStaleResult `json:"md_bump"`
	Pass    cachePassResult  `json:"pass"`
	Note    string           `json:"note"`
}

type cacheBenchConfig struct {
	StormRequests int    `json:"storm_requests"`
	MaxInFlight   int    `json:"max_in_flight"`
	MaxQueue      int    `json:"max_queue"`
	ShapeSQL      string `json:"shape_sql"`
}

type cachePhaseResult struct {
	Requests   int     `json:"requests"`
	OK         int     `json:"ok"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	WallMS     int64   `json:"wall_ms"`
	OptsPerSec float64 `json:"optimizations_per_sec"`
}

type cacheWarmupStats struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
	Entries  int64   `json:"entries"`
	Bytes    int64   `json:"bytes"`
}

type cacheStaleResult struct {
	BumpedRelation string `json:"bumped_relation"`
	StateAfterBump string `json:"cache_state_after_bump"`
	StaleHits      int    `json:"stale_hits"`
	// ReseedState is the request after the post-bump one: the post-bump
	// request observes the stamp advance during its own bind and is
	// deliberately never cached (its session straddled the bump), so this
	// one pays for search and seeds the fresh-stamp entry.
	ReseedState     string `json:"cache_state_reseed"`
	RewarmedState   string `json:"cache_state_rewarmed"`
	EvictionsViaKey bool   `json:"stale_entries_unreachable"`
}

type cachePassResult struct {
	P50Speedup10x bool `json:"p50_speedup_10x"`
	HitRatio90    bool `json:"hit_ratio_90"`
	ZeroStaleHits bool `json:"zero_stale_hits"`
}

// cacheShapeSQL is TPC-DS q3's star join with the manager-id literal left as
// a %d hole. Values 8..15 share one selectivity bucket (same sign, same bit
// length), so every instance of the storm maps to one cache entry.
const cacheShapeSQL = `
	SELECT dt.d_year, i.i_brand_id, sum(ss.ss_sales_price) AS sum_agg
	FROM date_dim dt, store_sales ss, item i
	WHERE dt.d_date_sk = ss.ss_sold_date_sk
	  AND ss.ss_item_sk = i.i_item_sk
	  AND i.i_manager_id = %d AND dt.d_moy = 11
	GROUP BY dt.d_year, i.i_brand_id
	ORDER BY dt.d_year, sum_agg DESC, i.i_brand_id
	LIMIT 100`

// cacheExp measures the parameterized plan cache end to end and writes
// BENCH_cache.json in -json mode.
func cacheExp(env *experiments.Env, jsonOut bool) error {
	header("parameterized plan cache: cold vs warm repeated-shape storm")

	const storm = 96
	sqlFor := func(i int) string { return fmt.Sprintf(cacheShapeSQL, 8+i%8) }

	mkConfig := func(cacheOff bool) serve.Config {
		base := core.DefaultConfig(env.Cfg.Segments)
		base.MDLookupTimeout = 2 * time.Second
		return serve.Config{
			Base: base,
			Admission: serve.AdmissionConfig{
				MaxInFlight:  4,
				MaxQueue:     storm,
				QueueTimeout: 30 * time.Second,
			},
			RequestTimeout: 30 * time.Second,
			MinBudgetFrac:  1, // fixed budgets: the comparison is search vs rebind
			Provider:       env.Provider,
			Cache:          env.Cache,
			PlanCacheOff:   cacheOff,
		}
	}
	report := cacheBenchReport{
		Suite: "plan-cache",
		Config: cacheBenchConfig{
			StormRequests: storm,
			MaxInFlight:   4,
			MaxQueue:      storm,
			ShapeSQL:      fmt.Sprintf(cacheShapeSQL, 8),
		},
		Note: "cold storm runs with -plan-cache-off (every request searches); warm " +
			"storm reuses one parameterized plan across per-request constants in " +
			"the same selectivity bucket. identical admission limits both phases.",
	}

	// --- Cold phase: plan cache off ---
	coldSrv, coldURL, coldStop, err := bootServer(mkConfig(true))
	if err != nil {
		return err
	}
	report.Cold, err = runCachePhase(coldURL, sqlFor, storm)
	_ = coldSrv
	coldStop()
	if err != nil {
		return err
	}
	fmt.Printf("cold (cache off): ok=%d/%d  p50=%.2fms p99=%.2fms  %.1f optimizations/sec\n",
		report.Cold.OK, storm, report.Cold.P50MS, report.Cold.P99MS, report.Cold.OptsPerSec)

	// --- Warm phase: cache on, primed by one request ---
	warmSrv, warmURL, warmStop, err := bootServer(mkConfig(false))
	if err != nil {
		return err
	}
	defer warmStop()
	if _, err := postOptimize(warmURL, sqlFor(0)); err != nil {
		return fmt.Errorf("cache experiment: priming request: %w", err)
	}
	report.Warm, err = runCachePhase(warmURL, sqlFor, storm)
	if err != nil {
		return err
	}
	st := warmSrv.PlanCache().Stats()
	report.Warmup = cacheWarmupStats{
		Hits:    st.Hits,
		Misses:  st.Misses,
		Entries: st.Entries,
		Bytes:   st.Bytes,
	}
	if st.Hits+st.Misses > 0 {
		report.Warmup.HitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	if report.Warm.P50MS > 0 {
		report.P50Gain = report.Cold.P50MS / report.Warm.P50MS
	}
	fmt.Printf("warm (cache on):  ok=%d/%d  p50=%.2fms p99=%.2fms  %.1f optimizations/sec\n",
		report.Warm.OK, storm, report.Warm.P50MS, report.Warm.P99MS, report.Warm.OptsPerSec)
	fmt.Printf("  hit ratio %.1f%% (%d hits / %d misses, %d entries, %d bytes)  p50 speedup %.1fx\n",
		100*report.Warmup.HitRatio, st.Hits, st.Misses, st.Entries, st.Bytes, report.P50Gain)

	// --- Metadata invalidation: a version bump must orphan the warm entry ---
	report.Stale.BumpedRelation = "item"
	if _, err := env.Provider.BumpRelationVersion("item"); err != nil {
		return fmt.Errorf("cache experiment: bump: %w", err)
	}
	state, err := postOptimize(warmURL, sqlFor(0))
	if err != nil {
		return fmt.Errorf("cache experiment: post-bump request: %w", err)
	}
	report.Stale.StateAfterBump = state
	if state == "hit" {
		report.Stale.StaleHits = 1
	}
	state, err = postOptimize(warmURL, sqlFor(1))
	if err != nil {
		return fmt.Errorf("cache experiment: re-seed request: %w", err)
	}
	report.Stale.ReseedState = state
	state, err = postOptimize(warmURL, sqlFor(2))
	if err != nil {
		return fmt.Errorf("cache experiment: re-warm request: %w", err)
	}
	report.Stale.RewarmedState = state
	report.Stale.EvictionsViaKey = report.Stale.StaleHits == 0
	fmt.Printf("md bump: first request after DDL: %s (stale hits %d), re-seed: %s, then: %s\n",
		report.Stale.StateAfterBump, report.Stale.StaleHits,
		report.Stale.ReseedState, report.Stale.RewarmedState)

	report.Pass = cachePassResult{
		P50Speedup10x: report.P50Gain >= 10,
		HitRatio90:    report.Warmup.HitRatio >= 0.90,
		ZeroStaleHits: report.Stale.StaleHits == 0,
	}
	fmt.Printf("pass: p50-speedup-10x=%v hit-ratio-90=%v zero-stale-hits=%v\n\n",
		report.Pass.P50Speedup10x, report.Pass.HitRatio90, report.Pass.ZeroStaleHits)

	if err := writeArtifact(jsonOut, "BENCH_cache.json", &report); err != nil {
		return err
	}
	if !report.Pass.P50Speedup10x || !report.Pass.HitRatio90 || !report.Pass.ZeroStaleHits {
		return fmt.Errorf("cache experiment: acceptance floor missed: %+v", report.Pass)
	}
	return nil
}

// runCachePhase fires the repeated-shape storm and reduces it to the phase
// metrics.
func runCachePhase(url string, sqlFor func(int) string, n int) (cachePhaseResult, error) {
	t0 := time.Now()
	results := fireStormVaried(url, sqlFor, n)
	wall := time.Since(t0)
	out := cachePhaseResult{Requests: n, WallMS: wall.Milliseconds()}
	var lat []time.Duration
	for _, r := range results {
		if r.status == http.StatusOK {
			out.OK++
		}
		lat = append(lat, r.latency)
	}
	if out.OK != n {
		return out, fmt.Errorf("cache experiment: %d/%d requests failed", n-out.OK, n)
	}
	out.P50MS = percentile(lat, 0.50)
	out.P99MS = percentile(lat, 0.99)
	if wall > 0 {
		out.OptsPerSec = float64(out.OK) / wall.Seconds()
	}
	return out, nil
}

// bootServer starts a serve instance on an ephemeral port and returns a stop
// function that drains it.
func bootServer(cfg serve.Config) (*serve.Server, string, func(), error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	addr := ""
	for i := 0; i < 500 && addr == ""; i++ {
		time.Sleep(2 * time.Millisecond)
		addr = srv.BoundAddr()
	}
	if addr == "" {
		return nil, "", nil, fmt.Errorf("server never bound")
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}
	return srv, "http://" + addr, stop, nil
}

// postOptimize sends one optimize request and returns the X-Orca-Cache
// header value.
func postOptimize(url, sqlText string) (string, error) {
	body, _ := json.Marshal(map[string]any{"sql": sqlText})
	resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Orca-Cache"), nil
}
