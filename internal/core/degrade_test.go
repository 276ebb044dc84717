package core

import (
	"errors"
	"strings"
	"testing"

	"orca/internal/base"
	"orca/internal/fault"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/props"
	"orca/internal/search"
)

// checkPlanShape verifies a plan is structurally valid: all nodes physical
// with derived properties, and the root delivering the query's requirements.
func checkPlanShape(t *testing.T, q *Query, plan *ops.Expr) {
	t.Helper()
	if plan == nil {
		t.Fatal("nil plan")
	}
	var walk func(e *ops.Expr)
	walk = func(e *ops.Expr) {
		if _, ok := e.Op.(ops.Physical); !ok {
			t.Fatalf("plan node %s is not a physical operator", e.Op.Name())
		}
		if e.Phys == nil {
			t.Fatalf("plan node %s missing derived properties", e.Op.Name())
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(plan)
	if !plan.Phys.Dist.Satisfies(props.SingletonDist) {
		t.Errorf("plan root delivers %s, want singleton", plan.Phys.Dist)
	}
	if !plan.Phys.Order.Satisfies(q.Order) {
		t.Errorf("plan root delivers order %s, want %s", plan.Phys.Order, q.Order)
	}
}

// TestPanicFaultDegradesToHeuristic is the headline robustness scenario: a
// fault point inside a scheduler job panics, the process survives, the
// failure is captured as a dump with the original panic stack, and Optimize
// still returns a valid plan via the ladder's heuristic rung.
func TestPanicFaultDegradesToHeuristic(t *testing.T) {
	q, f := paperExample(t)
	cfg := DefaultConfig(16)
	cfg.Faults = []fault.Spec{{
		Point:  fault.PointSearchJobExec,
		Action: fault.ActPanic,
		Limit:  1, // one panic: the normal pass dies, the heuristic rung is clean
	}}
	var captured *gpos.Exception
	cfg.DumpCapture = func(_ *Query, _ Config, failure *gpos.Exception) string {
		captured = failure
		return "dumps/panic.ampere.xml"
	}

	res, err := Optimize(q, cfg)
	if err != nil {
		t.Fatalf("degradation ladder should have rescued the panic: %v", err)
	}
	if !res.Degraded || res.DegradedRung != RungHeuristic {
		t.Fatalf("want heuristic-rung degraded result, got degraded=%v rung=%q",
			res.Degraded, res.DegradedRung)
	}
	checkPlanShape(t, q, res.Plan)
	if Explain(res.Plan, f) == "" {
		t.Error("degraded plan should be explainable")
	}

	if res.Failure == nil || res.Failure.Code != gpos.CodePanic {
		t.Fatalf("want contained panic as failure, got %v", res.Failure)
	}
	if len(res.Failure.Stack) == 0 || !strings.Contains(res.Failure.Stack[0], "injectPanic") {
		t.Errorf("failure stack should start at the original panic site, got %v", res.Failure.Stack)
	}
	if captured != res.Failure {
		t.Error("DumpCapture should receive the failure reported in the result")
	}
	if res.DumpPath != "dumps/panic.ampere.xml" {
		t.Errorf("dump path not reported: %q", res.DumpPath)
	}
	if fault.Enabled() {
		t.Error("faults must be disarmed when Optimize returns")
	}
}

// threeWayExample extends the paper example with a third relation so that
// full exploration (DP join ordering) materializes strictly more Memo groups
// than a greedy-only pass — which is what the MaxGroups guard test needs.
func threeWayExample(t *testing.T) (*Query, *md.ColumnFactory) {
	t.Helper()
	p := md.NewMemProvider()
	for i, rows := range []float64{100000, 80000, 60000} {
		md.Build(p, md.TableSpec{
			Name:   "T" + string(rune('1'+i)),
			Rows:   rows,
			Policy: md.DistHash, DistCols: []int{0},
			Cols: []md.ColSpec{
				{Name: "a", Type: base.TInt, NDV: 50000, Lo: 0, Hi: 50000},
				{Name: "b", Type: base.TInt, NDV: 1000, Lo: 0, Hi: 1000},
			},
		})
	}
	acc := md.NewAccessor(md.NewCache(&gpos.MemoryAccountant{}), p)
	f := md.NewColumnFactory()
	get := func(name string) *ops.Get {
		rel, err := acc.RelationByName(name)
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		cols := make([]*md.ColRef, len(rel.Columns))
		for i, c := range rel.Columns {
			cols[i] = f.NewTableColumn(rel.Name+"."+c.Name, c.Type, rel.Mdid, i)
		}
		return &ops.Get{Alias: rel.Name, Rel: rel, Cols: cols}
	}
	g1, g2, g3 := get("T1"), get("T2"), get("T3")
	j12 := ops.NewExpr(
		&ops.Join{Type: ops.InnerJoin, Pred: ops.Eq(
			ops.NewIdent(g1.Cols[0].ID, base.TInt),
			ops.NewIdent(g2.Cols[1].ID, base.TInt),
		)},
		ops.NewExpr(g1), ops.NewExpr(g2),
	)
	tree := ops.NewExpr(
		&ops.Join{Type: ops.InnerJoin, Pred: ops.Eq(
			ops.NewIdent(g2.Cols[0].ID, base.TInt),
			ops.NewIdent(g3.Cols[1].ID, base.TInt),
		)},
		j12, ops.NewExpr(g3),
	)
	return &Query{
		Tree:     tree,
		Order:    props.MakeOrder(g1.Cols[0].ID),
		OutCols:  []base.ColID{g1.Cols[0].ID},
		OutNames: []string{"a"},
		Factory:  f,
		Accessor: acc,
	}, f
}

// TestMaxGroupsAbortsBestSoFar checks the resource-guard drain: a Memo group
// cap trips during a later, wider stage; the stage is marked Aborted and the
// session still returns the best plan found before the guard fired.
func TestMaxGroupsAbortsBestSoFar(t *testing.T) {
	heuristicOff := heuristicDisabled()

	// Calibrate: how many groups does the light stage alone need?
	q0, _ := threeWayExample(t)
	cfg0 := DefaultConfig(16)
	cfg0.Stages = []Stage{{Name: "light", DisabledRules: heuristicOff}}
	lite, err := Optimize(q0, cfg0)
	if err != nil {
		t.Fatalf("light run: %v", err)
	}

	q, _ := threeWayExample(t)
	cfg := DefaultConfig(16)
	cfg.Stages = []Stage{
		{Name: "light", DisabledRules: heuristicOff},
		{Name: "full"},
	}
	cfg.MaxGroups = lite.Groups + 1 // stage 1 fits; stage 2's exploration does not
	res, err := Optimize(q, cfg)
	if err != nil {
		t.Fatalf("guarded run should keep best-so-far: %v", err)
	}
	if res.Degraded {
		t.Error("best-so-far abort is not a degradation")
	}
	if len(res.StageRuns) != 2 || res.StageRuns[0].Aborted || !res.StageRuns[1].Aborted {
		t.Fatalf("want only stage 2 aborted, got %+v", res.StageRuns)
	}
	checkPlanShape(t, q, res.Plan)
	if res.Cost > lite.Cost {
		t.Errorf("best-so-far cost %v worse than the light stage alone (%v)", res.Cost, lite.Cost)
	}
	if err := res.Memo.Validate(); err != nil {
		t.Errorf("aborted Memo invalid: %v", err)
	}
}

// TestMemoryBudgetMinimalRung: a budget too small for any search at all
// walks the ladder to the bottom rung, which emits a minimal valid plan
// without touching the scheduler.
func TestMemoryBudgetMinimalRung(t *testing.T) {
	q, f := paperExample(t)
	cfg := DefaultConfig(16)
	cfg.MemoryBudget = 1 // trips on the first quota poll of every search pass

	res, err := Optimize(q, cfg)
	if err != nil {
		t.Fatalf("minimal rung should always produce a plan: %v", err)
	}
	if !res.Degraded || res.DegradedRung != RungMinimal {
		t.Fatalf("want minimal-rung result, got degraded=%v rung=%q", res.Degraded, res.DegradedRung)
	}
	checkPlanShape(t, q, res.Plan)
	if res.Failure == nil || !errors.Is(res.Failure, search.ErrBudget) {
		t.Errorf("failure should record the budget abort, got %v", res.Failure)
	}
	plan := Explain(res.Plan, f)
	if !strings.Contains(plan, "NLJoin") {
		t.Errorf("minimal plan should use nested-loops joins:\n%s", plan)
	}
}

// TestExtractFaultDegrades covers the plan-extraction fault point: the
// normal pass finds a best cost but cannot extract, so the ladder retries.
func TestExtractFaultDegrades(t *testing.T) {
	q, _ := paperExample(t)
	cfg := DefaultConfig(16)
	cfg.Faults = []fault.Spec{{Point: fault.PointCoreExtract, Action: fault.ActError, Limit: 1}}
	res, err := Optimize(q, cfg)
	if err != nil {
		t.Fatalf("ladder should rescue extraction failure: %v", err)
	}
	if !res.Degraded || res.DegradedRung != RungHeuristic {
		t.Fatalf("want heuristic rung, got degraded=%v rung=%q", res.Degraded, res.DegradedRung)
	}
	if res.Failure == nil {
		t.Fatal("missing failure")
	}
	ex := gpos.AsException(res.Failure)
	if ex == nil || ex.Code != fault.CodeInjected {
		t.Errorf("failure should carry the injected fault, got %v", res.Failure)
	}
	checkPlanShape(t, q, res.Plan)
}

// TestDisableDegradationSurfacesError pins the opt-out: with the ladder off,
// the contained failure comes back as the error.
func TestDisableDegradationSurfacesError(t *testing.T) {
	q, _ := paperExample(t)
	cfg := DefaultConfig(16)
	cfg.DisableDegradation = true
	cfg.Faults = []fault.Spec{{Point: fault.PointSearchJobExec, Action: fault.ActPanic}}
	_, err := Optimize(q, cfg)
	ex := gpos.AsException(err)
	if ex == nil || ex.Code != gpos.CodePanic {
		t.Fatalf("want contained panic error, got %v", err)
	}
}

// TestNormalizeFaultMinimalRung: a transient failure before the Memo even
// exists (at the core/normalize fault point) still ends in a plan — the
// minimal builder re-runs normalization itself, which is not behind that
// fault point. A genuine normalization error (unsupported query shape)
// still fails all the way down; see TestAutomaticAmpereCaptureOnError.
func TestNormalizeFaultMinimalRung(t *testing.T) {
	q, _ := paperExample(t)
	cfg := DefaultConfig(16)
	cfg.Faults = []fault.Spec{{Point: fault.PointCoreNormalize, Action: fault.ActError}}
	res, err := Optimize(q, cfg)
	if err != nil {
		t.Fatalf("minimal rung should rescue normalize failure: %v", err)
	}
	if res.DegradedRung != RungMinimal {
		t.Fatalf("want minimal rung, got %q", res.DegradedRung)
	}
	checkPlanShape(t, q, res.Plan)
}
