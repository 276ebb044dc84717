package main

// The memo experiment measures the Memo's four concurrent hot paths (the
// paper's Figure-7 premise: optimization time should drop as cores are
// added, which requires the shared search structure not to serialize the
// workers) and a Figure-7-style whole-query scalability curve. With -json it
// writes BENCH_memo.json, including the pre-refactor baseline recorded when
// the globally-locked Memo was last measured on this testbed, so the speedup
// of the contention-free design is part of the artifact.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"orca/internal/core"
	"orca/internal/experiments"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/props"
	"orca/internal/sql"
	"orca/internal/tpcds"
)

// memoCPUCounts is the GOMAXPROCS ladder of the scalability curve.
var memoCPUCounts = []int{1, 2, 4, 8}

// preRefactorNsPerOp is the microbenchmark baseline of the globally-locked
// Memo (single mutex around the fingerprint table, the group array, and the
// applied-rule string maps), measured with the same benchmark bodies at
// -cpu=1,2,4,8 before the contention-free rewrite.
var preRefactorNsPerOp = map[string][]float64{
	"MemoInsertParallel": {968.1, 1205, 1271, 1760},
	"MemoInsertTarget":   {125.4, 137.8, 196.2, 249.5},
	"MemoGroupLookup":    {39.07, 41.34, 44.02, 47.63},
	"MemoRuleLedger":     {26.60, 28.99, 36.61, 42.15},
	"MemoContextProbe":   {169.5, 222.8, 275.2, 406.0},
}

// preRefactorQueryNs is the whole-query baseline: one optimization of q25
// with Workers=GOMAXPROCS on the pre-refactor Memo (indexes follow
// memoQueryWorkers).
var (
	memoQueryWorkers   = []int{1, 4, 8}
	preRefactorQueryNs = []float64{3647129594, 3860079582, 4381663836}
)

// memoBenchRow is one (benchmark, cpu-count) measurement in BENCH_memo.json.
type memoBenchRow struct {
	Name              string  `json:"name"`
	CPUs              int     `json:"cpus"`
	NsPerOp           float64 `json:"ns_per_op"`
	BytesPerOp        int64   `json:"bytes_per_op"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	SpeedupVs1Core    float64 `json:"speedup_vs_1_core"`
	BaselineNsPerOp   float64 `json:"baseline_ns_per_op,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// memoQueryRow is one point of the Figure-7-style whole-query curve.
type memoQueryRow struct {
	Query             string  `json:"query"`
	Workers           int     `json:"workers"`
	Ns                float64 `json:"ns"`
	SpeedupVs1Worker  float64 `json:"speedup_vs_1_worker"`
	BaselineNs        float64 `json:"baseline_ns,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// memoBenchReport is the BENCH_memo.json document.
type memoBenchReport struct {
	Suite      string         `json:"suite"`
	GOMAXPROCS int            `json:"host_gomaxprocs"`
	NumCPU     int            `json:"host_num_cpu"`
	Note       string         `json:"note"`
	Micro      []memoBenchRow `json:"microbenchmarks"`
	WholeQuery []memoQueryRow `json:"whole_query"`
}

// memoMicroBenchmarks mirrors internal/memo's BenchmarkMemo* bodies against
// the exported Memo API so cmd/benchmarks can run the same measurements
// in-process via testing.Benchmark.
func memoMicroBenchmarks() []struct {
	name string
	body func(b *testing.B)
} {
	leaf := func(m *memo.Memo) memo.GroupID {
		ge, err := m.InsertExpr(&ops.CTEConsumer{ID: 0}, nil, -1)
		fatal(err)
		return ge.Group().ID
	}
	return []struct {
		name string
		body func(b *testing.B)
	}{
		{"MemoInsertParallel", func(b *testing.B) {
			m := memo.New(&gpos.MemoryAccountant{})
			l := leaf(m)
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					if _, err := m.InsertExpr(&ops.Limit{Count: n / 2}, []memo.GroupID{l}, -1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}},
		{"MemoInsertTarget", func(b *testing.B) {
			m := memo.New(&gpos.MemoryAccountant{})
			l := leaf(m)
			ge, err := m.InsertExpr(&ops.Limit{Count: -1}, []memo.GroupID{l}, -1)
			fatal(err)
			target := ge.Group().ID
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					if _, err := m.InsertExpr(&ops.Limit{Count: n % 64}, []memo.GroupID{l}, target); err != nil {
						b.Fatal(err)
					}
				}
			})
		}},
		{"MemoGroupLookup", func(b *testing.B) {
			m := memo.New(&gpos.MemoryAccountant{})
			const groups = 1024
			for i := 0; i < groups; i++ {
				_, err := m.InsertExpr(&ops.CTEConsumer{ID: i}, nil, -1)
				fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if m.Group(memo.GroupID(i%groups)).NumExprs() == 0 {
						b.Fatal("empty group")
					}
					i++
				}
			})
		}},
		{"MemoRuleLedger", func(b *testing.B) {
			m := memo.New(&gpos.MemoryAccountant{})
			l := leaf(m)
			ge, err := m.InsertExpr(&ops.Limit{Count: 1}, []memo.GroupID{l}, -1)
			fatal(err)
			ge.MarkApplied(0)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if ge.Applied(i%16) != (i%16 == 0) {
						b.Fatal("ledger lied")
					}
					i++
				}
			})
		}},
		{"MemoContextProbe", func(b *testing.B) {
			m := memo.New(&gpos.MemoryAccountant{})
			l := leaf(m)
			ge, err := m.InsertExpr(&ops.Limit{Count: 1}, []memo.GroupID{l}, -1)
			fatal(err)
			g := ge.Group()
			reqs := []props.Required{
				{Dist: props.SingletonDist},
				{Dist: props.AnyDist},
				{Dist: props.SingletonDist, Order: props.MakeOrder(1)},
				{Dist: props.ReplicatedDist, Rewindable: true},
			}
			for _, r := range reqs {
				g.Context(r)
				ge.AddCandidate(m.InternReq(r), memo.Candidate{Cost: 10})
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					r := reqs[i%len(reqs)]
					if g.LookupContext(r) == nil || len(ge.Candidates(r)) == 0 {
						b.Fatal("probe lost")
					}
					i++
				}
			})
		}},
	}
}

// memoExp runs the Memo scalability experiment: the microbenchmark ladder at
// GOMAXPROCS 1,2,4,8 plus the whole-query curve, printed as a table and, in
// -json mode, written to BENCH_memo.json.
func memoExp(env *experiments.Env, jsonOut bool) error {
	header("Memo scalability: hot-path microbenchmarks and Figure-7-style curve")
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	report := memoBenchReport{
		Suite:      "memo-hot-paths",
		GOMAXPROCS: prev,
		NumCPU:     runtime.NumCPU(),
		Note: "cpus = GOMAXPROCS during the run; on hosts with fewer physical " +
			"cores the ladder measures oversubscribed scheduling, which is the " +
			"contention-sensitive regime. baseline_* fields are the pre-refactor " +
			"globally-locked Memo measured with identical benchmark bodies.",
	}

	fmt.Printf("%-22s %5s %12s %10s %10s %10s %10s\n",
		"benchmark", "cpus", "ns/op", "B/op", "allocs/op", "vs-1core", "vs-base")
	for _, bench := range memoMicroBenchmarks() {
		var oneCore float64
		for i, cpus := range memoCPUCounts {
			runtime.GOMAXPROCS(cpus)
			r := testing.Benchmark(bench.body)
			row := memoBenchRow{
				Name:        bench.name,
				CPUs:        cpus,
				NsPerOp:     float64(r.NsPerOp()),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if i == 0 {
				oneCore = row.NsPerOp
			}
			if row.NsPerOp > 0 {
				row.SpeedupVs1Core = oneCore / row.NsPerOp
			}
			if base := preRefactorNsPerOp[bench.name]; len(base) > i && row.NsPerOp > 0 {
				row.BaselineNsPerOp = base[i]
				row.SpeedupVsBaseline = base[i] / row.NsPerOp
			}
			report.Micro = append(report.Micro, row)
			fmt.Printf("%-22s %5d %12.1f %10d %10d %9.2fx %9.2fx\n",
				row.Name, row.CPUs, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp,
				row.SpeedupVs1Core, row.SpeedupVsBaseline)
		}
	}
	runtime.GOMAXPROCS(prev)

	var sqlText string
	for _, wq := range tpcds.Workload() {
		if wq.Name == "q25" {
			sqlText = wq.SQL
		}
	}
	fmt.Printf("\n%-6s %8s %14s %10s %10s\n", "query", "workers", "opt-ns", "vs-1wkr", "vs-base")
	var oneWorker float64
	for i, workers := range memoQueryWorkers {
		runtime.GOMAXPROCS(workers)
		q, err := sql.Bind(sqlText, md.NewAccessor(env.Cache, env.Provider), md.NewColumnFactory())
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig(env.Cfg.Segments)
		cfg.Workers = workers
		start := time.Now()
		if _, err := core.Optimize(q, cfg); err != nil {
			return err
		}
		row := memoQueryRow{Query: "q25", Workers: workers, Ns: float64(time.Since(start).Nanoseconds())}
		if i == 0 {
			oneWorker = row.Ns
		}
		if row.Ns > 0 {
			row.SpeedupVs1Worker = oneWorker / row.Ns
			row.BaselineNs = preRefactorQueryNs[i]
			row.SpeedupVsBaseline = row.BaselineNs / row.Ns
		}
		report.WholeQuery = append(report.WholeQuery, row)
		fmt.Printf("%-6s %8d %14.0f %9.2fx %9.2fx\n",
			row.Query, row.Workers, row.Ns, row.SpeedupVs1Worker, row.SpeedupVsBaseline)
	}
	runtime.GOMAXPROCS(prev)
	fmt.Println()

	if err := writeArtifact(jsonOut, "BENCH_memo.json", &report); err != nil {
		return err
	}
	return nil
}
