package experiments

import (
	"math"
	"testing"

	"orca/internal/taqo"
	"orca/internal/tpcds"
)

// TestTAQOPlanSpacePinned pins the plan space TAQO samples from the Memo's
// Figure-6 local tables: the number of plans the root request admits, and
// the estimated cost of the plan unranked at eight fixed ranks
// (⌊Count·i/8⌋). Unranking walks each expression's candidates in the order
// they were recorded, so a local table that drops, duplicates or reorders a
// candidate moves the count or the sampled costs. The testbed is
// TestSearchPinnedOnQ25Q6's.
func TestTAQOPlanSpacePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the TPC-DS testbed")
	}
	env, err := NewEnv(Config{Segments: 16, Scale: 1, Seed: 20140622, Budget: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		count float64
		costs [8]float64
	}
	want := map[string]pin{
		"q3": {5440316, [8]float64{32393.771392, 5005.398195, 31974.138576, 64130.075204,
			8154.788913, 1067815.954202, 31941.483407, 64140.189727}},
		"q6": {811876046763096, [8]float64{564259.544138, 2193023.618684, 13952.024580, 245938.867710,
			169153.654193, 101180.411080, 2135776.581160, 103125.331537}},
		"q25": {139219022470500, [8]float64{8174137.706315, 583127.854498, 39706.348551, 159105.088413,
			781152.522202, 581855.219314, 4647735.269434, 248820.658793}},
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
		s := taqo.NewSampler(res.Memo, res.RootGroup, res.RootReq)
		var got pin
		got.count = s.Count()
		for i := range got.costs {
			_, cost, err := s.Sample(math.Floor(got.count * float64(i) / 8))
			if err != nil {
				t.Fatalf("%s: rank %d/8: %v", wq.Name, i, err)
			}
			got.costs[i] = cost
		}
		if got.count != w.count {
			t.Errorf("%s: plan space %.0f, want %.0f", wq.Name, got.count, w.count)
		}
		for i, c := range got.costs {
			if math.Abs(c-w.costs[i]) > 1e-6 {
				t.Errorf("%s: cost at rank %d/8 = %.6f, want %.6f", wq.Name, i, c, w.costs[i])
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("found %d of %d pinned queries in the workload", seen, len(want))
	}
}
