package search

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"orca/internal/fault"
	"orca/internal/gpos"
)

// panicInsideJob is a named frame so tests can assert the contained
// exception's stack points at the panic site, not the recovery site.
func panicInsideJob() {
	panic("boom inside job")
}

func TestSchedulerContainsJobPanic(t *testing.T) {
	tb := jobTable{}
	bomb := tb.goal(&stepJob{key: "bomb", steps: []stepFn{
		func() ([]Job, bool, error) {
			panicInsideJob()
			return nil, true, nil
		},
	}})
	err := (&Scheduler{}).Run(bomb)
	if err == nil {
		t.Fatal("want error from panicking job")
	}
	ex := gpos.AsException(err)
	if ex == nil {
		t.Fatalf("want gpos.Exception, got %T: %v", err, err)
	}
	if ex.Comp != gpos.CompSearch || ex.Code != gpos.CodePanic {
		t.Errorf("want %s/%s, got %s/%s", gpos.CompSearch, gpos.CodePanic, ex.Comp, ex.Code)
	}
	if !strings.Contains(ex.Msg, "opt job") || !strings.Contains(ex.Msg, bomb.String()) {
		t.Errorf("message should name kind and key: %q", ex.Msg)
	}
	if len(ex.Stack) == 0 || !strings.Contains(ex.Stack[0], "panicInsideJob") {
		t.Errorf("stack should start at the panic site, got %v", ex.Stack)
	}
}

func TestSchedulerPanicFailsOnlyThisRun(t *testing.T) {
	// After a contained panic the same process can run a fresh scheduler —
	// §6.1's "fail the query, not the process".
	tb := jobTable{}
	bomb := tb.goal(&stepJob{key: "bomb", steps: []stepFn{
		func() ([]Job, bool, error) { panic("first run dies") },
	}})
	if err := (&Scheduler{}).Run(bomb); err == nil {
		t.Fatal("want error from panicking run")
	}
	var hits int
	if err := (&Scheduler{}).Run(tb.goal(leaf("ok", &hits))); err != nil || hits != 1 {
		t.Fatalf("follow-up run broken: err=%v hits=%d", err, hits)
	}
}

func TestSchedulerJobExecFaultPoint(t *testing.T) {
	disarm, err := fault.Arm([]fault.Spec{{Point: fault.PointSearchJobExec, Action: fault.ActError}})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	tb := jobTable{}
	var hits int
	runErr := (&Scheduler{}).Run(tb.goal(leaf("victim", &hits)))
	ex := gpos.AsException(runErr)
	if ex == nil || ex.Comp != gpos.CompSearch || ex.Code != fault.CodeInjected {
		t.Fatalf("want injected search fault, got %v", runErr)
	}
	if hits != 0 {
		t.Error("job body ran despite injected fault before the step")
	}
}

func TestSchedulerJobExecPanicFaultContained(t *testing.T) {
	disarm, err := fault.Arm([]fault.Spec{{Point: fault.PointSearchJobExec, Action: fault.ActPanic}})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	tb := jobTable{}
	var hits int
	runErr := (&Scheduler{}).Run(tb.goal(leaf("victim", &hits)))
	ex := gpos.AsException(runErr)
	if ex == nil || ex.Code != gpos.CodePanic {
		t.Fatalf("want contained panic exception, got %v", runErr)
	}
	if len(ex.Stack) == 0 || !strings.Contains(ex.Stack[0], "injectPanic") {
		t.Errorf("stack should start at the fault's panic site, got %v", ex.Stack)
	}
}

func TestSchedulerQuotaAbortDrains(t *testing.T) {
	// The quota trips after a few steps; the run must end with the quota's
	// error through the drain path, recognizable via Drained.
	var steps int
	quotaErr := fmt.Errorf("87 groups over limit: %w", ErrBudget)
	tb := jobTable{}
	s := &Scheduler{}
	s.p.Quota = func() error {
		if steps >= 5 {
			return quotaErr
		}
		return nil
	}
	err := s.Run(spawnForeverJob(tb, &steps))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget through quota, got %v", err)
	}
	if !Drained(err) {
		t.Error("quota abort must count as drained")
	}
}

// spawnForeverJob endlessly spawns fresh children, simulating an unbounded
// search.
func spawnForeverJob(tb jobTable, counter *int) Job {
	*counter++
	return tb.goal(&stepJob{key: fmt.Sprintf("spawn%d", *counter), steps: []stepFn{
		func() ([]Job, bool, error) {
			return []Job{spawnForeverJob(tb, counter)}, false, nil
		},
		func() ([]Job, bool, error) { return nil, true, nil },
	}})
}

func TestDrained(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{ErrTimeout, true},
		{ErrBudget, true},
		{fmt.Errorf("stage x: %w", ErrTimeout), true},
		{fmt.Errorf("memory: %w", ErrBudget), true},
		{errors.New("genuine failure"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := Drained(c.err); got != c.want {
			t.Errorf("Drained(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
