package fault

import "sort"

// Point is a registered fault point. Only this package can construct a
// named Point (through register, which refuses a duplicate name), so an
// instrumentation site cannot inject an ad-hoc or unregistered point: a
// string literal, a misspelled name or a point declared elsewhere does not
// compile where Inject and Spec expect a Point. The zero Point names no
// fault point: it never fires, and Arm rejects it.
type Point struct{ name string }

// String returns the point's name as it appears in spec strings.
func (p Point) String() string { return p.name }

// registered maps every declared fault point's name to a one-line
// description of the instrumented site. It is the single source of truth
// consulted by Arm and ParseSpecs validation and by RandomSchedule.
var registered = map[string]string{}

// register declares one fault point. A duplicate name is a programming error
// caught at package initialisation.
func register(name, site string) Point {
	if _, dup := registered[name]; dup {
		panic("fault: duplicate fault point " + name)
	}
	registered[name] = site
	return Point{name}
}

// The central fault-point table. Every location instrumented with Inject is
// named here, once.
//
// Naming convention: <component>/<site>[/<detail>], where the component
// prefix selects the gpos.Component of injected exceptions (see
// componentFor).
var (
	// PointMDCacheLookup fires in md.Accessor.Get before the metadata-cache
	// lookup — the first step of every metadata access.
	PointMDCacheLookup = register("md/cache/lookup", "metadata accessor cache lookup (md.Accessor.Get)")
	// PointMDProviderFetch fires in md.Accessor.Get before the backend
	// provider fetch on a cache miss.
	PointMDProviderFetch = register("md/provider/fetch", "metadata provider fetch on cache miss (md.Accessor.Get)")
	// PointDXLParse fires in dxl.ParseXML before parsing a DXL document.
	PointDXLParse = register("dxl/parse", "DXL document parse (dxl.ParseXML)")
	// PointDXLHarvest fires in dxl.Harvest before serializing a session's
	// touched metadata into a dump document.
	PointDXLHarvest = register("dxl/harvest", "DXL metadata harvest (dxl.Harvest)")
	// PointMemoInsert fires in memo.Memo.InsertExpr before a group
	// expression is copied into the Memo.
	PointMemoInsert = register("memo/insert", "Memo group-expression insertion (memo.Memo.InsertExpr)")
	// PointMemoStatsDerive fires in memo.Memo.DeriveStats before a group's
	// statistics are derived.
	PointMemoStatsDerive = register("memo/stats/derive", "group statistics derivation (memo.Memo.DeriveStats)")
	// PointCostCompute fires in the search layer's Opt(gexpr, req) job right
	// before a plan alternative is costed.
	PointCostCompute = register("cost/compute", "plan-alternative costing (search Opt(gexpr, req) job)")
	// PointSearchJobExec fires in the scheduler's step loop before every job
	// step — the paper's CJob execution boundary.
	PointSearchJobExec = register("search/job/exec", "scheduler job step (search.Scheduler step loop)")
	// PointSearchXformApply fires in the Xform(gexpr, t) job before a
	// transformation rule is applied.
	PointSearchXformApply = register("search/xform/apply", "transformation-rule application (search Xform job)")
	// PointCoreNormalize fires in core.Optimize before query normalization.
	PointCoreNormalize = register("core/normalize", "query normalization (core.Optimize)")
	// PointCoreExtract fires in core.Optimize before plan extraction from
	// the Memo.
	PointCoreExtract = register("core/extract", "plan extraction (core.Optimize)")

	// The serve/* points let the chaos gate storm the optimizer service
	// (cmd/orcad) itself rather than only the search underneath it.

	// PointServeAdmit fires in serve's admission controller before a request
	// takes a concurrency slot; an injected error sheds the request as if
	// the queue were full (429 with Retry-After).
	PointServeAdmit = register("serve/admission/reject", "admission-controller slot acquisition (serve admission)")
	// PointServeMDTransient fires in md's retried lookup path before each
	// provider attempt; injected errors are classified transient so they
	// exercise the retry-with-backoff machinery end to end.
	PointServeMDTransient = register("serve/md/transient-error", "retryable metadata lookup attempt (md timedLookup retry loop)")
	// PointServeHandlerPanic fires in serve's optimize handler inside the
	// per-request containment boundary; arm it with panic to prove a
	// panicking request produces a 500 + AMPERe dump, not a dead process.
	PointServeHandlerPanic = register("serve/handler/panic", "optimize-handler containment boundary (serve request lifecycle)")
	// PointServeHandlerSlow fires in serve's optimize handler before
	// optimization starts; arm it with delay to simulate a slow handler
	// eating the request deadline.
	PointServeHandlerSlow = register("serve/handler/slow", "optimize-handler latency injection (serve request lifecycle)")

	// The plancache/* points fault the parameterized plan cache's hit path:
	// both make a probe distrust what it found, so chaos schedules exercise
	// the defensive eviction paths and prove a poisoned cache degrades to a
	// miss (re-optimization), never to a wrong plan.

	// PointPlanCacheCorrupt fires in plancache.Cache.Lookup after an entry is
	// found; when it fires the entry is treated as corrupt — evicted and
	// reported as a miss — so the request re-optimizes.
	PointPlanCacheCorrupt = register("plancache/corrupt-entry", "plan-cache corrupt-entry discard (plancache.Cache.Lookup)")
	// PointPlanCacheStale fires in plancache.Cache.Lookup after an entry is
	// found; when it fires the entry is treated as if its metadata version
	// stamp no longer matched — evicted and reported as a miss.
	PointPlanCacheStale = register("plancache/stale-version", "plan-cache stale-version discard (plancache.Cache.Lookup)")
)

// Points returns all registered fault points, sorted by name.
func Points() []Point {
	out := make([]Point, 0, len(registered))
	for name := range registered {
		out = append(out, Point{name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// lookupPoint resolves a spec-string point name.
func lookupPoint(name string) (Point, bool) {
	_, ok := registered[name]
	return Point{name}, ok
}
