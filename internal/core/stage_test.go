package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"orca/internal/fault"
	"orca/internal/memo"
	"orca/internal/search"
)

// TestStageTimeoutBestSoFar checks the best-so-far timeout semantics: a
// stage cut short by its step budget keeps the best plan accumulated in the
// root optimization context instead of discarding the stage, and the
// abandoned Memo still satisfies all structural invariants.
func TestStageTimeoutBestSoFar(t *testing.T) {
	q, _ := paperExample(t)
	cfg := DefaultConfig(16)
	full, err := Optimize(q, cfg)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	total := full.Search.TotalSteps()
	if total < 10 {
		t.Fatalf("suspiciously small search: %d steps", total)
	}

	// The root Opt goal completes last, so cutting exactly one step short
	// loses only the root's final completion mark — the best plan is already
	// in place and must match the full run's.
	q2, _ := paperExample(t)
	cfg2 := DefaultConfig(16)
	cfg2.Stages = []Stage{{Name: "budget", StepLimit: total - 1}}
	res, err := Optimize(q2, cfg2)
	if err != nil {
		t.Fatalf("budgeted run: %v", err)
	}
	if len(res.StageRuns) != 1 || !res.StageRuns[0].TimedOut {
		t.Fatalf("stage should have timed out: %+v", res.StageRuns)
	}
	if res.Plan == nil {
		t.Fatal("no best-so-far plan")
	}
	if res.Cost != full.Cost {
		t.Errorf("best-so-far cost %v, want full cost %v", res.Cost, full.Cost)
	}
	if err := res.Memo.Validate(); err != nil {
		t.Errorf("abandoned Memo invalid: %v", err)
	}

	// Mid-search budgets: whatever plan comes out must be valid and no better
	// than the optimum; runs with no plan yet must report the timeout.
	for _, budget := range []int64{total / 2, total / 3, total / 4, total / 8} {
		if budget < 1 {
			continue
		}
		q3, _ := paperExample(t)
		cfg3 := DefaultConfig(16)
		cfg3.Stages = []Stage{{Name: "budget", StepLimit: budget}}
		res, err := Optimize(q3, cfg3)
		if err != nil {
			if !errors.Is(err, search.ErrTimeout) {
				t.Errorf("budget %d: want ErrTimeout in %v", budget, err)
			}
			continue
		}
		if res.Plan == nil {
			t.Errorf("budget %d: nil plan without error", budget)
			continue
		}
		if res.Cost < full.Cost {
			t.Errorf("budget %d: best-so-far cost %v beats full optimum %v", budget, res.Cost, full.Cost)
		}
		if err := res.Memo.Validate(); err != nil {
			t.Errorf("budget %d: abandoned Memo invalid: %v", budget, err)
		}
	}
}

// TestStageDeadlineMidRunBestSoFar cuts a stage by its wall-clock deadline
// one step before the end: a delay injected into the second-to-last job step
// outlasts the deadline, the deadline timer fires during it, and the stage
// drains before the next step. The best plan is then already in place (see
// TestStageTimeoutBestSoFar), extractable at the full run's cost. The
// deadline is either the stage's Timeout or the request context's: a stage
// with no Timeout of its own is still bounded by the request, and reports
// TimedOut so the plan cache never admits its plan.
func TestStageDeadlineMidRunBestSoFar(t *testing.T) {
	q, _ := paperExample(t)
	full, err := Optimize(q, DefaultConfig(16))
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	total := full.Search.TotalSteps()

	const timeout = 200 * time.Millisecond
	for _, viaRequest := range []bool{false, true} {
		name := "stage-timeout"
		if viaRequest {
			name = "request-deadline"
		}
		t.Run(name, func(t *testing.T) {
			disarm, err := fault.Arm([]fault.Spec{{Point: fault.PointSearchJobExec, Action: fault.ActDelay,
				Delay: timeout + 100*time.Millisecond, Every: int(total - 1), Limit: 1}})
			if err != nil {
				t.Fatal(err)
			}
			defer disarm()
			q2, _ := paperExample(t)
			cfg := DefaultConfig(16)
			cfg.Stages = []Stage{{Name: "deadline", Timeout: timeout}}
			cfg.DisableDegradation = true
			ctx := context.Background()
			if viaRequest {
				cfg.Stages = []Stage{{Name: "deadline"}}
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			res, err := OptimizeContext(ctx, q2, cfg)
			if err != nil {
				t.Fatalf("deadline run: %v", err)
			}
			if len(res.StageRuns) != 1 || !res.StageRuns[0].TimedOut {
				t.Fatalf("stage should have timed out: %+v", res.StageRuns)
			}
			if n := res.Search.TotalSteps(); n != total-1 {
				t.Errorf("ran %d steps, want %d: the deadline must stop the stage right after the delayed step", n, total-1)
			}
			if res.Plan == nil || res.Cost != full.Cost {
				t.Errorf("best-so-far plan %v at cost %v, want the full run's cost %v", res.Plan != nil, res.Cost, full.Cost)
			}
			if err := res.Memo.Validate(); err != nil {
				t.Errorf("drained Memo invalid: %v", err)
			}
		})
	}
}

// TestStageTimeoutErrorAndRescue checks that a hopeless deadline surfaces
// ErrTimeout (with the degradation ladder off), that the ladder rescues the
// same configuration when left on, and that a later stage rescues the
// session by resuming the same Memo.
func TestStageTimeoutErrorAndRescue(t *testing.T) {
	q, _ := paperExample(t)
	cfg := DefaultConfig(16)
	cfg.Stages = []Stage{{Name: "tiny", Timeout: time.Nanosecond}}
	cfg.DisableDegradation = true
	if _, err := Optimize(q, cfg); !errors.Is(err, search.ErrTimeout) {
		t.Errorf("want ErrTimeout from hopeless single stage, got %v", err)
	}

	qd, _ := paperExample(t)
	dcfg := DefaultConfig(16)
	dcfg.Stages = []Stage{{Name: "tiny", Timeout: time.Nanosecond}}
	dres, err := Optimize(qd, dcfg)
	if err != nil {
		t.Fatalf("degradation ladder should rescue hopeless stage: %v", err)
	}
	if !dres.Degraded || dres.DegradedRung != RungHeuristic || dres.Plan == nil {
		t.Errorf("want heuristic-rung degraded plan, got degraded=%v rung=%q plan=%v",
			dres.Degraded, dres.DegradedRung, dres.Plan != nil)
	}
	if dres.Failure == nil || !errors.Is(dres.Failure, search.ErrTimeout) {
		t.Errorf("degraded result should keep the triggering failure, got %v", dres.Failure)
	}

	q2, _ := paperExample(t)
	cfg2 := DefaultConfig(16)
	cfg2.Stages = []Stage{
		{Name: "tiny", Timeout: time.Nanosecond},
		{Name: "full"},
	}
	res, err := Optimize(q2, cfg2)
	if err != nil {
		t.Fatalf("rescued run: %v", err)
	}
	if res.Plan == nil || res.Stage != "full" {
		t.Fatalf("second stage should produce the plan, got stage %q", res.Stage)
	}
	if len(res.StageRuns) != 2 || !res.StageRuns[0].TimedOut || res.StageRuns[1].TimedOut {
		t.Errorf("stage outcomes wrong: %+v", res.StageRuns)
	}
}

// TestStageReuseSharedMemo checks that stages share one Memo: an identical
// second stage is a no-op resume, and a widened second stage fires only the
// newly enabled rules.
func TestStageReuseSharedMemo(t *testing.T) {
	// Identical rule sets share an epoch: stage 2 must collapse to the single
	// root Opt step that observes the context already done — zero exploration,
	// implementation, transformation or statistics work.
	q, _ := paperExample(t)
	cfg := DefaultConfig(16)
	cfg.Stages = []Stage{{Name: "s1"}, {Name: "s2"}}
	res, err := Optimize(q, cfg)
	if err != nil {
		t.Fatalf("identical stages: %v", err)
	}
	if len(res.StageRuns) != 2 {
		t.Fatalf("want 2 stage runs, got %d", len(res.StageRuns))
	}
	s2 := res.StageRuns[1]
	if s2.RulesFired != 0 {
		t.Errorf("identical stage 2 fired %d rules, want 0", s2.RulesFired)
	}
	for _, k := range []search.JobKind{search.JobExp, search.JobImp, search.JobXform, search.JobStats} {
		if n := s2.Search.Steps[k]; n != 0 {
			t.Errorf("identical stage 2 ran %d %s steps, want 0", n, k)
		}
	}
	if n := s2.Search.Steps[search.JobOpt]; n != 1 {
		t.Errorf("identical stage 2 ran %d opt steps, want exactly 1 (the done check)", n)
	}

	// A widened second stage re-walks under its own epoch, but the applied
	// ledger spans epochs: every transformation step fires a genuinely new
	// rule (no duplicate rule applications), and stage 2 does strictly less
	// transformation work than a fresh full run.
	q2, _ := paperExample(t)
	cfg2 := DefaultConfig(16)
	cfg2.Stages = []Stage{
		{Name: "crippled", DisabledRules: []string{"Join2HashJoin"}},
		{Name: "full"},
	}
	res2, err := Optimize(q2, cfg2)
	if err != nil {
		t.Fatalf("widened stages: %v", err)
	}
	if res2.Stage != "full" {
		t.Errorf("full stage should win, got %q", res2.Stage)
	}
	var totalFired int64
	for _, run := range res2.StageRuns {
		if run.Search.Steps[search.JobXform] != run.RulesFired {
			t.Errorf("stage %s: %d xform steps but %d rules fired — duplicate transformation work",
				run.Name, run.Search.Steps[search.JobXform], run.RulesFired)
		}
		totalFired += run.RulesFired
	}
	if totalFired != res2.RulesFired {
		t.Errorf("per-stage fired %d != total %d", totalFired, res2.RulesFired)
	}
	qf, _ := paperExample(t)
	fresh, err := Optimize(qf, DefaultConfig(16))
	if err != nil {
		t.Fatalf("fresh full run: %v", err)
	}
	if s2 := res2.StageRuns[1]; s2.RulesFired >= fresh.RulesFired {
		t.Errorf("resumed full stage fired %d rules, want fewer than a fresh run's %d",
			s2.RulesFired, fresh.RulesFired)
	}

	// On-demand statistics: every group search costed has statistics, and the
	// eager whole-Memo sweep is gone — the Memo may hold groups that were
	// never costed and so never derived statistics.
	costed, withStats := 0, 0
	for gid := 0; gid < res2.Memo.NumGroups(); gid++ {
		g := res2.Memo.Group(memo.GroupID(gid))
		if len(g.Contexts()) == 0 {
			continue
		}
		costed++
		if g.Stats() != nil {
			withStats++
		}
	}
	if costed == 0 {
		t.Fatal("no groups were costed")
	}
	if withStats != costed {
		t.Errorf("%d of %d costed groups have statistics", withStats, costed)
	}
}
