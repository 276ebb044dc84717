package core

import (
	"os"
	"strconv"
	"testing"

	"orca/internal/fault"
	"orca/internal/gpos"
)

// TestChaosSchedule is the CI chaos mode (paper §6.1: "automate testing the
// unexpected"): each round arms a seeded randomized fault schedule — errors,
// delays and panics at points drawn from the registered table — and
// optimizes real queries under it. The invariants are survival invariants,
// independent of which faults fire: the process never crashes, every failure
// that escapes is a structured gpos.Exception, the degradation ladder always
// lands on a valid plan, and no armed fault leaks past Optimize.
//
// The schedule is reproducible from the seed: run with ORCA_CHAOS=1 and
// ORCA_CHAOS_SEED=<n> to replay a CI failure. check.sh runs this under -race
// with a date-derived seed so the schedule rotates daily.
func TestChaosSchedule(t *testing.T) {
	if os.Getenv("ORCA_CHAOS") == "" {
		t.Skip("chaos mode: set ORCA_CHAOS=1 (and optionally ORCA_CHAOS_SEED=<n>) to run")
	}
	seed := int64(1)
	if s := os.Getenv("ORCA_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad ORCA_CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d", seed)

	for round := 0; round < 10; round++ {
		specs := fault.RandomSchedule(seed+int64(round), 3)
		t.Logf("round %d: %s", round, fault.FormatSpecs(specs))

		var q *Query
		if round%2 == 0 {
			q, _ = paperExample(t)
		} else {
			q, _ = threeWayExample(t)
		}
		cfg := DefaultConfig(16)
		cfg.Faults = specs
		switch round % 3 {
		case 1:
			cfg.MaxGroups = 500
		case 2:
			cfg.MemoryBudget = 64 << 20
		}

		res, err := Optimize(q, cfg)
		if err != nil {
			// The ladder's minimal rung has no fault points, so failures
			// should not normally escape — but if one does, it must be
			// structured, never a raw panic or bare error.
			if ex := gpos.AsException(err); ex == nil {
				t.Fatalf("round %d: unstructured failure escaped Optimize: %v", round, err)
			}
			t.Logf("round %d: structured failure: %v", round, err)
		} else {
			checkPlanShape(t, q, res.Plan)
			if res.Degraded {
				t.Logf("round %d: degraded to %s rung after %s/%s",
					round, res.DegradedRung, res.Failure.Comp, res.Failure.Code)
			}
		}
		if fault.Enabled() {
			t.Fatalf("round %d: faults still armed after Optimize", round)
		}
	}
}
