package core

import "testing"

// joinOrderFamily is the generated join-reordering rule family (defs/
// rules.opt). Staging it off and on exercises rule-set epochs: each stage
// installs a different enabled set via xform.Context.SetRuleSet, and the
// Memo's exploration markers are epoch-scoped, so the full stage must
// re-explore the groups the restricted stage finished under its own epoch.
var joinOrderFamily = []string{"JoinCommutativity", "JoinAssociativity"}

// TestStagedRuleEpochsParallel runs a two-stage session — join reordering
// disabled, then unrestricted — over one shared Memo with the parallel
// scheduler. check.sh runs this package under -race, which is the point:
// epoch bookkeeping is read from every worker while SetRuleSet writes it
// between stages.
func TestStagedRuleEpochsParallel(t *testing.T) {
	for i := 0; i < 3; i++ {
		q, _ := paperExample(t)
		cfg := DefaultConfig(16)
		cfg.Workers = 8
		cfg.Stages = []Stage{
			{Name: "no-join-reorder", DisabledRules: joinOrderFamily},
			{Name: "full"},
		}
		res, err := Optimize(q, cfg)
		if err != nil {
			t.Fatalf("staged optimize: %v", err)
		}
		if res.Plan == nil {
			t.Fatal("no plan")
		}
		if len(res.StageRuns) != 2 {
			t.Fatalf("stage runs = %d, want 2", len(res.StageRuns))
		}
		// The unrestricted epoch only adds alternatives; it can never leave
		// the session worse than the restricted stage's best plan.
		if res.StageRuns[1].Cost > res.StageRuns[0].Cost {
			t.Errorf("full stage cost %.2f worse than restricted %.2f",
				res.StageRuns[1].Cost, res.StageRuns[0].Cost)
		}
		if res.Cost != res.StageRuns[1].Cost {
			t.Errorf("session cost %.2f != final stage cost %.2f",
				res.Cost, res.StageRuns[1].Cost)
		}

		// Replaying the second epoch over a fresh Memo in one unrestricted
		// stage must land on the same plan cost.
		q2, _ := paperExample(t)
		single, err := Optimize(q2, DefaultConfig(16))
		if err != nil {
			t.Fatalf("single-stage optimize: %v", err)
		}
		if res.Cost != single.Cost {
			t.Errorf("staged cost %.2f != single-stage cost %.2f", res.Cost, single.Cost)
		}
	}
}
