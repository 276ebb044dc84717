package experiments

import (
	"math"
	"testing"

	"orca/internal/search"
	"orca/internal/tpcds"
)

// TestSearchPinnedOnQ25Q6 pins the search the two heaviest TPC-DS queries
// perform — job steps per kind, peak queue depth, rules fired, Memo size and
// plan cost. Scheduler and job changes must make the same search cheaper,
// not a different search: any drift here is a behaviour change to justify,
// not a number to refresh. Re-pinned twice, each time a rule that produced
// no new expression was deleted: after the mirror-rotation and exchange
// rules, explore/xform steps, rules fired and q25's peak queue dropped;
// after PushSelectThroughJoin/GbAgg, q6 lost 2 explore and 4 xform steps and
// q25 1 and 2. Implement/optimize/stats steps, Memo size and cost are the
// values recorded before job identity moved off strings. The "all" row sums
// every workload query (peak queue is the maximum): the scheduler
// deduplicates only group-level goals, so this row is what catches an
// expression-level goal spawned, and run, twice.
func TestSearchPinnedOnQ25Q6(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the TPC-DS testbed")
	}
	env, err := NewEnv(Config{Segments: 16, Scale: 1, Seed: 20140622, Budget: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		steps              [search.NumJobKinds]int64
		peakQueue          int
		rules              int64
		groups, groupExprs int
		cost               float64
	}
	want := map[string]pin{
		"q6":  {[search.NumJobKinds]int64{7077, 4611, 142068, 8545, 204}, 697, 8545, 108, 7080, 2286.470312},
		"q25": {[search.NumJobKinds]int64{12290, 8000, 255904, 15089, 288}, 896, 15089, 148, 12273, 3284.528314},
		"all": {[search.NumJobKinds]int64{25325, 17316, 498119, 29190, 1335}, 896, 29190, 796, 26373, 106517.966503},
	}
	check := func(name string, got, w pin) {
		if got.steps != w.steps {
			t.Errorf("%s: steps by kind %v, want %v", name, got.steps, w.steps)
		}
		if got.peakQueue != w.peakQueue {
			t.Errorf("%s: peak queue %d, want %d", name, got.peakQueue, w.peakQueue)
		}
		if got.rules != w.rules || got.groups != w.groups || got.groupExprs != w.groupExprs {
			t.Errorf("%s: rules=%d groups=%d gexprs=%d, want %d/%d/%d", name,
				got.rules, got.groups, got.groupExprs, w.rules, w.groups, w.groupExprs)
		}
		if math.Abs(got.cost-w.cost) > 1e-6 {
			t.Errorf("%s: plan cost %.6f, want %.6f", name, got.cost, w.cost)
		}
	}
	var all pin
	seen := 0
	for _, wq := range tpcds.Workload() {
		res, _, err := env.OptimizeOrca(wq.SQL)
		if err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
		got := pin{res.Search.Steps, res.Search.PeakQueue, res.RulesFired, res.Groups, res.GroupExprs, res.Cost}
		for k, n := range got.steps {
			all.steps[k] += n
		}
		all.peakQueue = max(all.peakQueue, got.peakQueue)
		all.rules += got.rules
		all.groups += got.groups
		all.groupExprs += got.groupExprs
		all.cost += got.cost
		if w, ok := want[wq.Name]; ok {
			seen++
			check(wq.Name, got, w)
		}
	}
	if seen != len(want)-1 {
		t.Fatalf("found %d of %d pinned queries in the workload", seen, len(want)-1)
	}
	check("all", all, want["all"])
}
