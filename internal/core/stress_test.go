package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"orca/internal/fault"
	"orca/internal/gpos"
)

// TestConcurrentOptimizeStress is the service workload in miniature, run
// under -race by check.sh: many concurrent Optimize sessions with tight
// memory/group budgets and a randomized fault schedule armed across all of
// them. The invariant is the serving contract — every session returns a
// plan or a structured exception, within bounded time, with no unrecovered
// panic and no data race between sessions (they share nothing but the
// global fault registry and runtime).
func TestConcurrentOptimizeStress(t *testing.T) {
	const (
		rounds     = 3
		sessions   = 8
		roundLimit = 60 * time.Second
	)
	for round := 0; round < rounds; round++ {
		// Bind the queries before arming the schedule: the bind phase is the
		// client's side of the contract, the stress is on Optimize.
		queries := make([]*Query, sessions)
		for i := range queries {
			if i%2 == 0 {
				queries[i], _ = paperExample(t)
			} else {
				queries[i], _ = threeWayExample(t)
			}
		}
		specs := fault.RandomSchedule(0xbeef+int64(round), 4)
		t.Logf("round %d: %s", round, fault.FormatSpecs(specs))
		disarm, err := fault.Arm(specs)
		if err != nil {
			t.Fatalf("round %d: Arm: %v", round, err)
		}

		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				q := queries[i]
				cfg := DefaultConfig(16)
				cfg.MemoryBudget = 1 << 20
				cfg.MaxGroups = 200
				res, err := Optimize(q, cfg)
				switch {
				case err != nil:
					if gpos.AsException(err) == nil {
						errs <- fmt.Errorf("session %d: unstructured failure: %w", i, err)
					}
				case res.Plan == nil:
					errs <- fmt.Errorf("session %d: nil plan without error", i)
				}
			}(i)
		}

		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(roundLimit):
			t.Fatalf("round %d: sessions still running after %v — a budgeted "+
				"Optimize must never hang", round, roundLimit)
		}
		disarm()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
