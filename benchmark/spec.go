package main

// spec.go declares every metric the benchmark emits. BENCHMARK.json at the
// repository root is printed from these tables (-print-spec), and the smoke
// test holds the two equal.

import (
	"encoding/json"
	"strings"
)

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one timed phase measures under the driver.
const runSeconds = 15

// endToEnd is what a host database calling orcad sees. A bound is the share
// of the parent's median by which the metric may worsen; README "Bounds"
// records the seed-commit spreads they were set from.
var endToEnd = []endToEndSpec{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"plan_work_units", "count", "lower", 0.02},
}

func perLayer() []perLayerSpec {
	var out []perLayerSpec
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, perLayerSpec{n, unit, better})
		}
	}
	add("lower", "us", "serve.residual_us")
	add("lower", "ms", "serve.latency_p99_ms")
	add("higher", "count", "serve.admitted")
	add("lower", "count", "serve.shed", "serve.degraded", "serve.failed")
	add("lower", "ratio", "serve.failed_share")
	add("lower", "us", "sql.parse_us", "sql.bind_us")
	add("lower", "count", "sql.bind_allocs")
	add("higher", "count", "md.cache_hits")
	add("lower", "count", "md.cache_misses")
	add("lower", "1/req", "md.lookups_per_req")
	add("lower", "us", "dxl.parse_xml_us", "dxl.parse_query_us", "dxl.serialize_plan_us")
	add("lower", "bytes", "dxl.request_bytes", "dxl.response_bytes")
	add("lower", "us", "plancache.extract_us", "plancache.lookup_us", "plancache.rebind_us", "plancache.admit_us")
	add("lower", "count", "plancache.hit_allocs")
	add("higher", "ratio", "plancache.hit_ratio")
	add("lower", "count", "plancache.evictions")
	add("higher", "count", "plancache.entries")
	add("lower", "bytes", "plancache.bytes")
	add("lower", "us", "core.optimize_us", "core.self_us", "core.explain_us")
	add("lower", "count", "core.optimize_allocs")
	add("lower", "bytes", "core.optimize_alloc_bytes")
	add("lower", "us", "search.wall_us", "search.busy_us")
	add("lower", "count", "search.steps")
	for _, k := range jobKindNames() {
		add("lower", "count", "search.steps."+k)
	}
	add("lower", "count", "search.peak_queue")
	add("higher", "ratio", "search.utilization")
	add("lower", "count", "memo.groups", "memo.group_exprs")
	add("lower", "bytes", "memo.peak_mem_bytes")
	add("lower", "count", "xform.rules_fired")
	add("lower", "us", "xform.us_per_rule")
	add("lower", "count", "engine.exec_work_units")
	add("lower", "us", "engine.exec_us")
	add("higher", "count", "engine.rows_out")
	add("lower", "ratio", "share.serve", "share.sql", "share.dxl", "share.plancache", "share.core", "share.search")
	add("higher", "ratio", "trace.coverage")
	add("lower", "ratio", "generator.cpu_share")
	add("higher", "count", "verify.plans")
	add("lower", "count", "verify.wrong_plans", "verify.known_wrong_plans", "verify.nondeterministic")
	add("lower", "ratio", "verify.wrong_plan_share")
	return out
}

var layerUnits = func() map[string]string {
	units := map[string]string{}
	for _, s := range perLayer() {
		units[s.Name] = s.Unit
	}
	return units
}()

func layerUnit(name string) string {
	unit, ok := layerUnits[name]
	if !ok {
		panic("metric " + name + " is not declared in spec.go")
	}
	return unit
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []map[string]string `json:"workloads"`
	EndToEnd   []endToEndSpec      `json:"end_to_end"`
	PerLayer   []perLayerSpec      `json:"per_layer"`
}

func specJSON() string {
	spec := benchmarkSpec{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads() {
		spec.Workloads = append(spec.Workloads, map[string]string{"name": w.name, "why": w.why})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	_ = enc.Encode(spec) // plain structs of strings and numbers always encode
	return b.String()
}
