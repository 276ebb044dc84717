package main

// The search experiment measures the job scheduler and search core on their
// own: one full pass over the TPC-DS workload (the body of the repository's
// BenchmarkOptimizationTime), the two heaviest queries, and the q25 worker
// ladder — truncated to the cores the host really has, so the ladder never
// reports oversubscription as scaling. With -json it writes
// BENCH_search.json: the row measured now next to the recorded row of the
// commit before job identity moved off strings, and the allocations-per-pass
// figure check.sh gates on. Regenerate with
//
//	go run ./cmd/benchmarks -experiment=search -scale=1 -json
//
// (-scale=1 matches bench_test.go's testbed, which the check.sh smoke runs).

import (
	"fmt"
	"runtime"
	"testing"

	"orca/internal/core"
	"orca/internal/experiments"
	"orca/internal/md"
	"orca/internal/sql"
	"orca/internal/tpcds"
)

// searchMeasure is one benchmark result.
type searchMeasure struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

type searchQueryRow struct {
	Query string `json:"query"`
	searchMeasure
}

type searchWorkerRow struct {
	Workers          int     `json:"workers"`
	NsPerOp          int64   `json:"ns_per_op"`
	SpeedupVs1Worker float64 `json:"speedup_vs_1_worker"`
}

// searchRow is one commit's measurements.
type searchRow struct {
	Label   string            `json:"label"`
	Commit  string            `json:"commit,omitempty"`
	Pass    searchMeasure     `json:"tpcds_pass"`
	Queries []searchQueryRow  `json:"queries"`
	Workers []searchWorkerRow `json:"q25_worker_ladder"`
}

type searchReport struct {
	Suite      string      `json:"suite"`
	NumCPU     int         `json:"host_num_cpu"`
	GOMAXPROCS int         `json:"host_gomaxprocs"`
	Segments   int         `json:"segments"`
	Scale      int         `json:"scale"`
	Note       string      `json:"note"`
	Rows       []searchRow `json:"rows"`
	// GateAllocsPerPass is the "after" row's allocations per TPC-DS pass;
	// check.sh fails when a fresh pass exceeds 1.2x of it.
	GateAllocsPerPass int64 `json:"gate_allocs_per_pass"`
}

// searchBefore is commit 3d6bc02 (string job keys in a
// map[string]*jobState, built twice per enqueue) measured with these same
// bodies on the 2-core reference host, -scale=1.
var searchBefore = searchRow{
	Label:  "before",
	Commit: "3d6bc02",
	Pass:   searchMeasure{NsPerOp: 2093333852, AllocsPerOp: 13415772, BytesPerOp: 646916088},
	Queries: []searchQueryRow{
		{Query: "q25", searchMeasure: searchMeasure{NsPerOp: 967508138, AllocsPerOp: 7290376, BytesPerOp: 332992528}},
		{Query: "q6", searchMeasure: searchMeasure{NsPerOp: 508718590, AllocsPerOp: 3869009, BytesPerOp: 184211576}},
	},
	Workers: []searchWorkerRow{
		{Workers: 1, NsPerOp: 946503809, SpeedupVs1Worker: 1},
		{Workers: 2, NsPerOp: 1023987909, SpeedupVs1Worker: 0.92},
	},
}

// searchLadder is the worker ladder before truncation to the host's cores.
var searchLadder = []int{1, 2, 4, 8}

func measure(body func(b *testing.B)) searchMeasure {
	r := testing.Benchmark(body)
	return searchMeasure{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// optimizeBody benchmarks binding and optimizing one query with the given
// scheduler parallelism.
func optimizeBody(env *experiments.Env, sqlText string, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		cfg := core.DefaultConfig(env.Cfg.Segments)
		cfg.Workers = workers
		for i := 0; i < b.N; i++ {
			q, err := sql.Bind(sqlText, md.NewAccessor(env.Cache, env.Provider), md.NewColumnFactory())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Optimize(q, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func searchExp(env *experiments.Env, jsonOut bool) error {
	header("Search core: TPC-DS pass, heaviest queries, q25 worker ladder")
	after := searchRow{Label: "after"}
	after.Pass = measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.OptimizationStats(); err != nil {
				b.Fatal(err)
			}
		}
	})
	sqlOf := make(map[string]string)
	for _, wq := range tpcds.Workload() {
		sqlOf[wq.Name] = wq.SQL
	}
	for _, name := range []string{"q25", "q6"} {
		after.Queries = append(after.Queries,
			searchQueryRow{Query: name, searchMeasure: measure(optimizeBody(env, sqlOf[name], 1))})
	}
	for _, workers := range searchLadder {
		if workers > runtime.NumCPU() {
			break
		}
		row := searchWorkerRow{Workers: workers, NsPerOp: measure(optimizeBody(env, sqlOf["q25"], workers)).NsPerOp}
		row.SpeedupVs1Worker = 1
		if len(after.Workers) > 0 && row.NsPerOp > 0 {
			row.SpeedupVs1Worker = float64(after.Workers[0].NsPerOp) / float64(row.NsPerOp)
		}
		after.Workers = append(after.Workers, row)
	}

	for _, r := range []searchRow{searchBefore, after} {
		fmt.Printf("%-7s tpcds pass: %6.0f ms %10d allocs %6.0f MB\n", r.Label,
			float64(r.Pass.NsPerOp)/1e6, r.Pass.AllocsPerOp, float64(r.Pass.BytesPerOp)/1e6)
		for _, q := range r.Queries {
			fmt.Printf("%-7s %-10s %6.0f ms %10d allocs\n", r.Label, q.Query, float64(q.NsPerOp)/1e6, q.AllocsPerOp)
		}
		for _, w := range r.Workers {
			fmt.Printf("%-7s q25 workers=%d of %d cpus: %6.0f ms (%.2fx vs 1 worker)\n", r.Label,
				w.Workers, runtime.NumCPU(), float64(w.NsPerOp)/1e6, w.SpeedupVs1Worker)
		}
	}
	fmt.Println()

	if !jsonOut {
		return nil
	}
	report := searchReport{
		Suite:      "search-core",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Segments:   env.Cfg.Segments,
		Scale:      env.Cfg.Scale,
		Note: "q25_worker_ladder is truncated to host_num_cpu: a rung above the real core count " +
			"measures oversubscription, not scaling. Wall times are informative; check.sh gates " +
			"only gate_allocs_per_pass (x1.2). The before row is the recorded commit measured with " +
			"identical bodies on the 2-core reference host.",
		Rows:              []searchRow{searchBefore, after},
		GateAllocsPerPass: after.Pass.AllocsPerOp,
	}
	return writeArtifact(true, "BENCH_search.json", &report)
}
