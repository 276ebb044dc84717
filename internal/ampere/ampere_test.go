package ampere

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/dxl"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/sql"
)

func testProvider(t testing.TB) *md.MemProvider {
	t.Helper()
	p := md.NewMemProvider()
	md.Build(p, md.TableSpec{
		Name: "r", Rows: 1000,
		Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 1000, Lo: 0, Hi: 1000},
			{Name: "b", Type: base.TInt, NDV: 100, Lo: 0, Hi: 100},
		},
	})
	md.Build(p, md.TableSpec{
		Name: "untouched", Rows: 10,
		Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{{Name: "x", Type: base.TInt, NDV: 10, Lo: 0, Hi: 10}},
	})
	return p
}

func bindAndOptimize(t testing.TB, p *md.MemProvider, query string) (*core.Query, *core.Result, core.Config) {
	t.Helper()
	cache := md.NewCache(&gpos.MemoryAccountant{})
	acc := md.NewAccessor(cache, p)
	q, err := sql.Bind(query, acc, md.NewColumnFactory())
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	cfg := core.DefaultConfig(4)
	res, err := core.Optimize(q, cfg)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return q, res, cfg
}

const testQuery = "SELECT b, count(*) AS n FROM r WHERE a < 500 GROUP BY b ORDER BY b"

// capturedDump optimizes testQuery and captures a dump of it that expects
// the plan it produced.
func capturedDump(t *testing.T, p *md.MemProvider) *Dump {
	t.Helper()
	_, res, cfg := bindAndOptimize(t, p, testQuery)

	// Capture needs a freshly bound (un-normalized) query.
	cache := md.NewCache(&gpos.MemoryAccountant{})
	q2, err := sql.Bind(testQuery, md.NewAccessor(cache, p), md.NewColumnFactory())
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	// Touch the metadata binding would have touched.
	if _, err := q2.Accessor.RelationByName("r"); err != nil {
		t.Fatal(err)
	}
	d, err := Capture(context.Background(), q2, cfg, p, nil)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	d.ExpectedPlan = dxl.PlanFingerprint(res.Plan)
	return d
}

// replayChecked parses a dump document and requires its replay to reproduce
// the expected plan.
func replayChecked(t *testing.T, doc string) {
	t.Helper()
	d, err := Parse(doc)
	if err != nil {
		t.Fatalf("parse dump: %v", err)
	}
	check, err := Check(d)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !check.Passed {
		t.Errorf("replayed plan differs from expected:\n--- got ---\n%s\n--- want ---\n%s",
			check.GotPlan, check.ExpectedPlan)
	}
}

func TestDumpRoundTripAndReplay(t *testing.T) {
	doc := capturedDump(t, testProvider(t)).Render()
	// Minimality: the untouched table must not be in the dump.
	if strings.Contains(doc, "untouched") {
		t.Error("dump is not minimal: contains metadata the session never touched")
	}
	if !strings.Contains(doc, `Name="r"`) {
		t.Error("dump is missing touched relation r")
	}
	replayChecked(t, doc)
}

// TestDumpReplaysWorkersAttribute: dumps written while the search had a
// worker-count knob carry TraceFlags Workers="N". The attribute is no longer
// written and is ignored on read, so such a dump replays to the same plan.
func TestDumpReplaysWorkersAttribute(t *testing.T) {
	doc := capturedDump(t, testProvider(t)).Render()
	if strings.Contains(doc, "Workers=") {
		t.Fatalf("dump still writes a Workers attribute")
	}
	const flags = `<dxl:TraceFlags Segments="4"`
	if !strings.Contains(doc, flags) {
		t.Fatalf("dump has no %s element", flags)
	}
	replayChecked(t, strings.Replace(doc, flags, flags+` Workers="4"`, 1))
}

func TestDumpCapturesStackTrace(t *testing.T) {
	p := testProvider(t)
	cache := md.NewCache(&gpos.MemoryAccountant{})
	q, err := sql.Bind(testQuery, md.NewAccessor(cache, p), md.NewColumnFactory())
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	if _, err := q.Accessor.RelationByName("r"); err != nil {
		t.Fatal(err)
	}
	ex := gpos.Raise(gpos.CompOptimizer, "TestError", "synthetic failure")
	d, err := Capture(context.Background(), q, core.DefaultConfig(4), p, ex)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if len(d.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	doc := d.Render()
	if !strings.Contains(doc, "Stacktrace") || !strings.Contains(doc, "TestDumpCapturesStackTrace") {
		t.Errorf("rendered dump missing stack trace:\n%s", doc[:min(len(doc), 500)])
	}
	d2, err := Parse(doc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(d2.Stack) != len(d.Stack) {
		t.Errorf("stack lines changed in round trip: %d vs %d", len(d2.Stack), len(d.Stack))
	}
}

// TestDumpCaptureHook: the DumpCapture hook writes a dump into its
// directory that replays to the session's plan, and reports "" when the
// directory cannot be written.
func TestDumpCaptureHook(t *testing.T) {
	p := testProvider(t)
	_, res, cfg := bindAndOptimize(t, p, testQuery)
	cache := md.NewCache(&gpos.MemoryAccountant{})
	q, err := sql.Bind(testQuery, md.NewAccessor(cache, p), md.NewColumnFactory())
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	if _, err := q.Accessor.RelationByName("r"); err != nil {
		t.Fatal(err)
	}
	ex := gpos.Raise(gpos.CompOptimizer, "TestError", "synthetic failure")

	dir := t.TempDir()
	path := DumpCapture(context.Background(), dir, p)(q, cfg, ex)
	if filepath.Dir(path) != dir || !strings.HasPrefix(filepath.Base(path), "ampere-") {
		t.Fatalf("hook wrote %q, want an ampere-*.dxl file in %s", path, dir)
	}
	replayed, _, err := ReplayFile(path)
	if err != nil {
		t.Fatalf("replay %s: %v", path, err)
	}
	if got, want := dxl.PlanFingerprint(replayed.Plan), dxl.PlanFingerprint(res.Plan); got != want {
		t.Errorf("replayed plan differs:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	missing := filepath.Join(dir, "missing")
	if path := DumpCapture(context.Background(), missing, p)(q, cfg, ex); path != "" {
		t.Errorf("hook reported %q for an unwritable directory, want \"\"", path)
	}
}

func TestCheckDetectsPlanChange(t *testing.T) {
	p := testProvider(t)
	_, res, cfg := bindAndOptimize(t, p, testQuery)

	cache := md.NewCache(&gpos.MemoryAccountant{})
	q2, err := sql.Bind(testQuery, md.NewAccessor(cache, p), md.NewColumnFactory())
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	if _, err := q2.Accessor.RelationByName("r"); err != nil {
		t.Fatal(err)
	}
	// Disable a rule the winning plan used (the filter-merged scan); the
	// replayed plan changes and the test case must fail, triggering the
	// investigation workflow.
	cfg.DisabledRules = append(cfg.DisabledRules, "Select2Scan", "Select2IndexScan")
	d, err := Capture(context.Background(), q2, cfg, p, nil)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	d.ExpectedPlan = dxl.PlanFingerprint(res.Plan)
	check, err := Check(d)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if check.Passed {
		t.Error("expected plan discrepancy to be detected")
	}
	_ = res
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
