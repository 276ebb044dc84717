// Command benchmark is the repository's benchmark of record: it builds and
// runs the real cmd/orcad, drives it over loopback HTTP with generated
// request streams, verifies the plans by executing them, and prints every
// metric by name as "workload metric value unit". README.md explains the
// workloads, the metrics and how they interact.
//
//	go run ./benchmark -seed=1                      all four workloads, both passes
//	go run ./benchmark --workload warm_hits --seed 1 --seconds 15 --trace 0
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -regen-expected
//	go run ./benchmark -print-spec > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	out       string
	compare   bool
	regen     bool
	printSpec bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four)")
	flag.Uint64Var(&o.seed, "seed", 1, "request-stream seed")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay; -1: both")
	flag.StringVar(&o.out, "out", "", "append the run's metrics to this results file (input of -compare)")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: -compare a.json b.json")
	flag.BoolVar(&o.regen, "regen-expected", false, "rewrite expected/tpcds_rows.json from the current source")
	flag.BoolVar(&o.printSpec, "print-spec", false, "print BENCHMARK.json as the metric tables declare it")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.printSpec {
		fmt.Print(specJSON())
		return nil
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if o.regen {
		return regenExpected(root)
	}
	if o.seconds <= 0 || o.trace < -1 || o.trace > 1 {
		return fmt.Errorf("want -seconds > 0 and -trace in {-1, 0, 1}")
	}
	ws := workloads()
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		ws = []workload{w}
	}
	host := hostInfo(root)
	fmt.Printf("host nproc=%s gomaxprocs=%s go=%s commit=%s seed=%d\n", host["nproc"], host["gomaxprocs"], host["go"], host["commit"], o.seed)
	var last *runResult
	for _, w := range ws {
		res, err := runWorkload(runConfig{
			w: w, seed: o.seed, seconds: o.seconds, e2e: o.trace != 1, traced: o.trace != 0, root: root, log: os.Stdout,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for _, s := range endToEnd {
			if m, ok := res.e2e[s.Name]; ok {
				fmt.Printf("%s %s %v %s\n", w.name, s.Name, m.Value, m.Unit)
			}
		}
		for _, s := range perLayer() {
			if m, ok := res.layer[s.Name]; ok {
				fmt.Printf("%s %s %v %s\n", w.name, s.Name, m.Value, m.Unit)
			}
		}
		if o.out != "" {
			if err := appendResults(o.out, host, w.name, o.seed, res); err != nil {
				return err
			}
		}
		last = res
	}
	if o.workload == "" || o.trace == -1 {
		return nil
	}
	// The driver's contract: one JSON object as the last line of stdout.
	metrics := last.e2e
	if o.trace == 1 {
		metrics = last.layer
	}
	line, err := json.Marshal(map[string]any{
		"correct": last.correct, "attempted": last.attempted, "failed": last.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
