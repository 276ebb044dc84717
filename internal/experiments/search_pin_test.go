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
// values recorded before job identity moved off strings.
func TestSearchPinnedOnQ25Q6(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the TPC-DS testbed")
	}
	env, err := NewEnv(Config{Segments: 16, Scale: 1, Seed: 20140622, Budget: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		steps              [search.NumJobKinds]int64
		peakQueue          int
		rules              int64
		groups, groupExprs int
		cost               float64
	}{
		"q6":  {[search.NumJobKinds]int64{7077, 4611, 142068, 8545, 204}, 697, 8545, 108, 7080, 2286.470312},
		"q25": {[search.NumJobKinds]int64{12290, 8000, 255904, 15089, 288}, 896, 15089, 148, 12273, 3284.528314},
	}
	seen := 0
	for _, wq := range tpcds.Workload() {
		w, ok := want[wq.Name]
		if !ok {
			continue
		}
		seen++
		res, _, err := env.OptimizeOrca(wq.SQL)
		if err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
		if res.Search.Steps != w.steps {
			t.Errorf("%s: steps by kind %v, want %v", wq.Name, res.Search.Steps, w.steps)
		}
		if res.Search.PeakQueue != w.peakQueue {
			t.Errorf("%s: peak queue %d, want %d", wq.Name, res.Search.PeakQueue, w.peakQueue)
		}
		if res.RulesFired != w.rules || res.Groups != w.groups || res.GroupExprs != w.groupExprs {
			t.Errorf("%s: rules=%d groups=%d gexprs=%d, want %d/%d/%d", wq.Name,
				res.RulesFired, res.Groups, res.GroupExprs, w.rules, w.groups, w.groupExprs)
		}
		if math.Abs(res.Cost-w.cost) > 1e-6 {
			t.Errorf("%s: plan cost %.6f, want %.6f", wq.Name, res.Cost, w.cost)
		}
	}
	if seen != len(want) {
		t.Fatalf("found %d of %d pinned queries in the workload", seen, len(want))
	}
}
