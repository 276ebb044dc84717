package main

// compare.go holds the results file and -compare, the tool for the two-run
// agreement check and for later performance changes.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
)

// resultsFile collects runs, so that one file can hold the ten runs a
// comparison needs. -out appends to it.
type resultsFile struct {
	Host map[string]string `json:"host"`
	Runs []resultsRun      `json:"runs"`
}

type resultsRun struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendResults(path string, host map[string]string, workload string, seed uint64, res *runResult) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &resultsFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Host = host
	run := resultsRun{
		Workload: workload, Seed: seed, Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Problems: res.problems,
	}
	if len(res.e2e) > 0 {
		run.EndToEnd = res.e2e
	}
	if len(res.layer) > 0 {
		run.PerLayer = res.layer
	}
	f.Runs = append(f.Runs, run)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spread is the distance between the first and third quartile as a share of
// the median, quartiles as Python's statistics.quantiles(v, n=4) gives them.
// ok is false below four values, where quartiles mean nothing.
func spread(v []float64) (s float64, ok bool) {
	if len(v) < 4 {
		return 0, false
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	q := func(k int) float64 {
		pos := float64(k*(len(sorted)+1)) / 4
		i := min(max(int(pos), 1), len(sorted)-1)
		return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
	}
	m := median(sorted)
	if m == 0 {
		return 0, true
	}
	return (q(3) - q(1)) / m, true
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// b's as a ratio of a's, the bound, and a verdict: regressed when b is worse
// than a by more than the bound, unresolved when either side's own spread is
// wider than the bound, ok otherwise.
func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	values := func(f *resultsFile, workload, name string) []float64 {
		var v []float64
		for _, r := range f.Runs {
			if m, ok := r.EndToEnd[name]; ok && r.Workload == workload {
				v = append(v, m.Value)
			}
		}
		return v
	}
	fmt.Printf("%-12s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
	bad := 0
	for _, w := range workloads() {
		for _, s := range endToEnd {
			va, vb := values(a, w.name, s.Name), values(b, w.name, s.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := mb - ma
			if s.Better == "higher" {
				worse = ma - mb
			}
			verdict := "ok"
			sa, okA := spread(va)
			sb, okB := spread(vb)
			switch {
			case s.Name != "setup_s" && (okA && sa > s.Bound || okB && sb > s.Bound):
				verdict = fmt.Sprintf("unresolved (spread a %.3f, b %.3f)", sa, sb)
				bad++
			case worse > s.Bound*ma:
				verdict = "regressed"
				bad++
			}
			fmt.Printf("%-12s %-16s %14.4f %14.4f %8.4f %6.2f  %s (n=%d,%d)\n", w.name, s.Name, ma, mb, mb/ma, s.Bound, verdict, len(va), len(vb))
		}
		for _, f := range []*resultsFile{a, b} {
			for _, r := range f.Runs {
				if r.Workload == w.name && !r.Correct {
					fmt.Printf("%-12s seed %d incorrect: %v\n", w.name, r.Seed, r.Problems)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) regressed, unresolved or incorrect", bad)
	}
	return nil
}
