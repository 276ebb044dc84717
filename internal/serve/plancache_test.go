package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/fault"
	"orca/internal/md"
	"orca/internal/plancache"
	"orca/internal/props"
	"orca/internal/sql"
)

const shapeSQL = "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b AND t1.b > 600 ORDER BY t1.a"

// sameShapeSQL differs from shapeSQL only in the constant (same selectivity
// bucket), so it must reuse shapeSQL's cached plan.
const sameShapeSQL = "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b AND t1.b > 700 ORDER BY t1.a"

func getVarz(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/varz")
	if err != nil {
		t.Fatalf("GET /varz: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var vars map[string]int64
	if err := json.Unmarshal(data, &vars); err != nil {
		t.Fatalf("parsing varz %q: %v", data, err)
	}
	return vars
}

// TestServeCacheHitMiss is the tentpole's serving contract: a cold shape
// pays for search and reports X-Orca-Cache: miss; a warm repeat — same text
// or same shape with different constants — skips the scheduler entirely
// (zero groups searched) and reports hit, with /varz accounting for both.
func TestServeCacheHitMiss(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, hdr, cold, _ := postJSON(t, ts.URL, optimizeRequest{SQL: shapeSQL})
	if status != http.StatusOK {
		t.Fatalf("cold status %d", status)
	}
	if got := hdr.Get("X-Orca-Cache"); got != "miss" {
		t.Errorf("cold X-Orca-Cache = %q, want miss", got)
	}
	if cold.Groups == 0 {
		t.Error("cold request reports zero groups — search did not run?")
	}

	status, hdr, warm, _ := postJSON(t, ts.URL, optimizeRequest{SQL: shapeSQL})
	if status != http.StatusOK {
		t.Fatalf("warm status %d", status)
	}
	if got := hdr.Get("X-Orca-Cache"); got != "hit" {
		t.Errorf("warm X-Orca-Cache = %q, want hit", got)
	}
	if warm.Groups != 0 || warm.RulesFired != 0 {
		t.Errorf("warm request ran a search: %d groups, %d rules", warm.Groups, warm.RulesFired)
	}
	if warm.Plan != cold.Plan {
		t.Errorf("warm plan differs from cold:\ncold:\n%s\nwarm:\n%s", cold.Plan, warm.Plan)
	}
	if warm.Cost != cold.Cost {
		t.Errorf("warm cost %v != cold cost %v", warm.Cost, cold.Cost)
	}

	// Same shape, different constant, same selectivity bucket: still a hit,
	// and the rebound plan carries the new constant.
	_, hdr, rebound, _ := postJSON(t, ts.URL, optimizeRequest{SQL: sameShapeSQL})
	if got := hdr.Get("X-Orca-Cache"); got != "hit" {
		t.Errorf("same-shape X-Orca-Cache = %q, want hit", got)
	}
	if rebound.Plan == cold.Plan {
		t.Error("rebound plan identical to cold plan — constant not rebound")
	}

	vars := getVarz(t, ts.URL)
	if vars["plan_cache_hits"] != 2 || vars["plan_cache_misses"] != 1 {
		t.Errorf("varz hits=%d misses=%d, want 2/1", vars["plan_cache_hits"], vars["plan_cache_misses"])
	}
	if vars["plan_cache_entries"] != 1 || vars["plan_cache_bytes"] <= 0 {
		t.Errorf("varz entries=%d bytes=%d", vars["plan_cache_entries"], vars["plan_cache_bytes"])
	}
}

// TestServeCacheOff: with the cache disabled every request pays for search
// and the header is absent.
func TestServeCacheOff(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.PlanCacheOff = true })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		_, hdr, out, _ := postJSON(t, ts.URL, optimizeRequest{SQL: shapeSQL})
		if got := hdr.Get("X-Orca-Cache"); got != "" {
			t.Errorf("request %d: X-Orca-Cache = %q with cache off", i, got)
		}
		if out.Groups == 0 {
			t.Errorf("request %d skipped search with cache off", i)
		}
	}
}

// TestServeCacheMDBumpEvicts is the metadata-invalidation satellite run end
// to end: a warm cache, then a DDL-style version bump in the backend, then
// the same request — which must re-optimize (zero stale hits), re-admit
// under the new stamp, and be warm again afterwards.
func TestServeCacheMDBumpEvicts(t *testing.T) {
	provider := md.NewMemProvider()
	md.Build(provider, md.TableSpec{
		Name: "t1", Rows: 100000, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 50000, Lo: 0, Hi: 50000},
			{Name: "b", Type: base.TInt, NDV: 1000, Lo: 0, Hi: 1000},
		},
	})
	md.Build(provider, md.TableSpec{
		Name: "t2", Rows: 80000, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 80000, Lo: 0, Hi: 80000},
			{Name: "b", Type: base.TInt, NDV: 40000, Lo: 0, Hi: 50000},
		},
	})
	s := newTestServer(t, func(c *Config) { c.Provider = provider })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	expect := func(step, want string) {
		t.Helper()
		status, hdr, _, apiErr := postJSON(t, ts.URL, optimizeRequest{SQL: shapeSQL})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%+v)", step, status, apiErr)
		}
		if got := hdr.Get("X-Orca-Cache"); got != want {
			t.Errorf("%s: X-Orca-Cache = %q, want %q", step, got, want)
		}
	}
	expect("cold", "miss")
	expect("warm", "hit")

	// DDL in the backend: the next request resolves the bumped relation
	// version, the md cache's invalidation stamp advances, and the cached
	// plan — keyed under the old stamp — is unreachable.
	if _, err := provider.BumpRelationVersion("t1"); err != nil {
		t.Fatal(err)
	}
	expect("post-bump", "miss")
	// The post-bump request is itself not cached: resolving the bumped
	// relation advanced the stamp during its own bind, and admission refuses
	// any plan whose session straddled a bump (see admitPlan). The next
	// request runs under a settled stamp and re-seeds; the one after is warm.
	expect("re-seed", "miss")
	expect("re-warmed", "hit")
}

// TestCacheAdmitRefusesMidBindBump: a metadata bump landing between the
// session's accessor opening (bind start) and admission must refuse the
// plan. The trap this pins down: a key stamped from the post-bind version is
// fresh and matches the live version at admit time, so a check of only
// "stamp still current" would cache a tree bound against pre-bump metadata
// under the post-bump stamp — and serve it indefinitely. The pre-bind
// snapshot (md.Accessor.MDVersionAtOpen) is what catches it.
func TestCacheAdmitRefusesMidBindBump(t *testing.T) {
	provider := md.NewMemProvider()
	md.Build(provider, md.TableSpec{
		Name: "t1", Rows: 100000, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 50000, Lo: 0, Hi: 50000},
			{Name: "b", Type: base.TInt, NDV: 1000, Lo: 0, Hi: 1000},
		},
	})
	md.Build(provider, md.TableSpec{
		Name: "t2", Rows: 80000, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 80000, Lo: 0, Hi: 80000},
			{Name: "b", Type: base.TInt, NDV: 40000, Lo: 0, Hi: 50000},
		},
	})
	s := newTestServer(t, func(c *Config) { c.Provider = provider })

	// The request's session: accessor opens (pre-bind snapshot), binds, and
	// optimizes against the pre-bump metadata.
	acc := md.NewAccessor(s.cache, provider)
	f := md.NewColumnFactory()
	q, err := sql.Bind(shapeSQL, acc, f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.OptimizeContext(context.Background(), q, s.cfg.Base)
	if err != nil {
		t.Fatal(err)
	}

	// A concurrent DDL: another session resolves the bumped relation, the
	// newer version displaces the cached one, and the invalidation stamp
	// advances — while our request is still in flight.
	if _, err := provider.BumpRelationVersion("t1"); err != nil {
		t.Fatal(err)
	}
	acc2 := md.NewAccessor(s.cache, provider)
	if _, err := acc2.RelationByName("t1"); err != nil {
		t.Fatal(err)
	}
	acc2.Close()
	if acc.MDVersion() == acc.MDVersionAtOpen() {
		t.Fatal("displacing insert did not advance the stamp")
	}

	// Build the key exactly as cachedOptimize would — after bind, so its
	// stamp is the fresh post-bump version matching the live one.
	shape, ok := plancache.Extract(q.Tree, q.Order, q.OutCols)
	if !ok {
		t.Fatal("shape not cacheable")
	}
	reqID, ok := s.plans.InternReq(props.Required{Dist: props.SingletonDist, Order: q.Order})
	if !ok {
		t.Fatal("InternReq refused")
	}
	key := plancache.Key{FP: shape.FP, Req: reqID, Buckets: shape.Buckets, MDVersion: acc.MDVersion()}
	if e := s.admitPlan(key, shape, res, acc); e != nil {
		t.Error("admitPlan cached a plan whose bind straddled an md-version bump")
	}
	if n := s.plans.Len(); n != 0 {
		t.Errorf("stale-bound plan admitted: %d entries", n)
	}
	acc.Close()
}

// TestServeCacheSingleflight: a storm of one cold shape runs the scheduler
// exactly once — the leader optimizes, everyone else is served from its
// flight (or a subsequent probe) without a search. Run under -race by
// check.sh.
func TestServeCacheSingleflight(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		// Enough slots that the whole storm optimizes concurrently; the
		// singleflight, not admission, must be what bounds the work.
		c.Admission = AdmissionConfig{MaxInFlight: 16, MaxQueue: 16, QueueTimeout: time.Second}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 12
	outs := make([]optimizeResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, out, apiErr := postJSON(t, ts.URL, optimizeRequest{SQL: shapeSQL})
			if status != http.StatusOK {
				t.Errorf("request %d: status %d (%+v)", i, status, apiErr)
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()

	fullRuns := 0
	for _, out := range outs {
		if out.Groups > 0 {
			fullRuns++
		}
	}
	if fullRuns != 1 {
		t.Errorf("%d scheduler runs for %d identical requests, want exactly 1", fullRuns, n)
	}
	for i, out := range outs {
		if out.Plan != outs[0].Plan {
			t.Errorf("request %d got a different plan", i)
		}
	}
}

// TestServeCacheChaos is the plan cache under the chaos gate: a seeded
// schedule arming the plancache/* fault points (corrupt entries, stale
// version stamps) while a warm-shape storm runs. The survival invariants:
// every request is answered 200 with the same plan — a distrusted entry may
// cost a re-optimization (miss), never a wrong or failed answer — and the
// defensive evictions are visible in the stats.
func TestServeCacheChaos(t *testing.T) {
	if os.Getenv("ORCA_CHAOS") == "" {
		t.Skip("chaos mode: set ORCA_CHAOS=1 (and optionally ORCA_CHAOS_SEED=<n>) to run")
	}
	seed := int64(1)
	if v := os.Getenv("ORCA_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad ORCA_CHAOS_SEED %q: %v", v, err)
		}
		seed = n
	}
	// Seed-rotated cadences keep the schedule deterministic per seed while
	// varying how often each point fires across days.
	corruptEvery := 2 + seed%3
	staleEvery := 3 + seed%4
	schedule := fault.PointPlanCacheCorrupt.String() + ":error:every=" + strconv.FormatInt(corruptEvery, 10) +
		"," + fault.PointPlanCacheStale.String() + ":error:every=" + strconv.FormatInt(staleEvery, 10)
	t.Logf("chaos seed %d: %s", seed, schedule)
	armFaults(t, schedule)

	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var refPlan string
	for i := 0; i < 40; i++ {
		status, _, out, apiErr := postJSON(t, ts.URL, optimizeRequest{SQL: shapeSQL})
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d (%+v)", i, status, apiErr)
		}
		if refPlan == "" {
			refPlan = out.Plan
		} else if out.Plan != refPlan {
			t.Fatalf("request %d served a different plan under chaos:\n%s", i, out.Plan)
		}
	}
	st := s.PlanCache().Stats()
	t.Logf("cache stats under chaos: %+v", st)
	if st.Evictions == 0 {
		t.Error("no defensive evictions despite armed plancache faults")
	}
	if st.Hits == 0 {
		t.Error("no hits at all — cache never recovered between faults")
	}
}
