package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func sortedKeys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload end to end on tiny streams and holds the
// emitted names equal to the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != specJSON() {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; rewrite it with go run ./benchmark -print-spec")
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var wantE2E, wantLayer, wantWorkloads []string
	for _, s := range spec.EndToEnd {
		wantE2E = append(wantE2E, s.Name)
	}
	for _, s := range spec.PerLayer {
		wantLayer = append(wantLayer, s.Name)
	}
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w["name"])
	}
	for _, n := range append(append(append([]string{}, wantE2E...), wantLayer...), wantWorkloads...) {
		if !nameOK.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameOK)
		}
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)

	var ran []string
	for _, w := range workloads() {
		ran = append(ran, w.name)
		var log strings.Builder
		res, err := runWorkload(runConfig{w: w, seed: 1, seconds: 0.3, e2e: true, traced: true, smoke: true, root: root, log: &log})
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, log.String())
		}
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.name, res.correct, res.attempted, res.failed, res.problems)
		}
		if got := sortedKeys(res.e2e); strings.Join(got, " ") != strings.Join(wantE2E, " ") {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", w.name, got, wantE2E)
		}
		if got := sortedKeys(res.layer); strings.Join(got, " ") != strings.Join(wantLayer, " ") {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json declares %v", w.name, got, wantLayer)
		}

		data, err := os.ReadFile(filepath.Join(root, buildDir, w.name, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		if len(tf.Spans) == 0 {
			t.Errorf("%s: empty trace", w.name)
		}
		for i, s := range tf.Spans {
			if s.ID != i+1 || s.Parent < 0 || s.Parent >= s.ID || s.EndNS < s.StartNS {
				t.Fatalf("%s: span %d malformed: %+v", w.name, i, s)
			}
			if s.Parent > 0 && tf.Spans[s.Parent-1].Req != s.Req {
				t.Fatalf("%s: span %d and its parent are of different requests", w.name, s.ID)
			}
		}
	}
	if strings.Join(ran, " ") != strings.Join(wantWorkloads, " ") {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", ran, wantWorkloads)
	}
}

// TestSpreadMatchesPythonQuantiles pins the quartile method -compare shares
// with the driver: statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	s, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := 5.5 / 5.5; !ok || s != want {
		t.Errorf("spread = %v, %v; want %v", s, ok, want)
	}
}
