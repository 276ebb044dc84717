package analysis

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tamper tests are the caught-bug set: each applies a minimal regression
// a reviewer could plausibly let through to a real package and demands that
// the build fail. The test comment names the mechanism that catches it —
// an orcavet analyzer (the copy is loaded as a fixture package, after an
// untampered control copy loads clean), the compiler, go vet or go test
// (the regression is overlaid on the real tree with `go -overlay`): the
// allocation ledger (TestAllocLedger and BENCH_allocs.json), the goroutine
// leak check every concurrent package's TestMain runs (internal/leakcheck),
// or a plain test that hangs past a short -timeout.

// copyPkgDir copies the non-test .go files of a real package directory into
// a fresh temp dir the test may mutate.
func copyPkgDir(t *testing.T, srcDir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatalf("reading %s: %v", srcDir, err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), src, 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
	}
	return dst
}

// mutate rewrites one occurrence of old to new in dir/file, failing the test
// if the anchor text has drifted out of the production source.
func mutate(t *testing.T, dir, file, old, new string) {
	t.Helper()
	path := filepath.Join(dir, file)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if !strings.Contains(string(src), old) {
		t.Fatalf("tamper anchor %q not found in %s; update the tamper test alongside the source", old, file)
	}
	out := strings.Replace(string(src), old, new, 1)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
}

// runTamper loads dir as the fixture package orcavet.test/tamper/<name> and
// returns the analyzer's filtered findings.
func runTamper(t *testing.T, dir, name string, a *Analyzer) []Diagnostic {
	t.Helper()
	l := sharedLoader(t)
	pkg, err := l.LoadDir(dir, "orcavet.test/tamper/"+name)
	if err != nil {
		t.Fatalf("loading tampered package: %v", err)
	}
	return RunModule([]*Package{pkg}, []*Analyzer{a}, nil)
}

func wantClean(t *testing.T, diags []Diagnostic, what string) {
	t.Helper()
	for _, d := range diags {
		t.Errorf("%s: unexpected finding: %s", what, d)
	}
}

func wantFinding(t *testing.T, diags []Diagnostic, what, substr string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Errorf("%s: no finding containing %q; got %d findings: %v", what, substr, len(diags), diags)
}

// TestTamperMemoInsertSprintf re-adds a fmt.Sprintf to Memo.Insert: one more
// allocation per inserted node. Caught by go test: the ledger's exact
// memo_insert_q3 row.
func TestTamperMemoInsertSprintf(t *testing.T) {
	wantLedgerFailure(t, "memo_insert_q3", "../memo/memo.go",
		"stack := make([]frame, 1, 32)",
		"stack := make([]frame, 1, 32)\n\t_ = fmt.Sprintf(\"insert of %d\", len(stack))")
}

// TestTamperJobKeySprintf re-adds a fmt.Sprintf to the registration of
// Opt(g, req), the goal table probe every spawn of that goal makes — the
// string job keys that were 38% of search CPU. Caught by go test: the
// ledger's core_optimize_q6 row, which moves by thousands against a
// tolerance of 16.
func TestTamperJobKeySprintf(t *testing.T) {
	wantLedgerFailure(t, "core_optimize_q6", "../search/jobs.go",
		"\tc := &w.goals(g).opts\n",
		"\t_ = fmt.Sprintf(\"og:%d:%d\", g, req)\n\tc := &w.goals(g).opts\n")
}

// TestTamperParseXMLSprintf formats inside the DXL scanner's token loop,
// which runs once per tag, text run and comment of every /optimize/dxl
// request. Caught by go test: the ledger's exact dxl_parse_xml_queries row.
func TestTamperParseXMLSprintf(t *testing.T) {
	wantLedgerFailure(t, "dxl_parse_xml_queries", "../dxl/parse.go",
		"import (\n\t\"bytes\"\n",
		"import (\n\t\"bytes\"\n\t\"fmt\"\n",
		"\tfor s.pos < len(s.doc) {\n",
		"\tfor s.pos < len(s.doc) {\n\t\t_ = fmt.Sprintf(\"token at %d\", s.pos)\n")
}

// wantLedgerFailure overlays the regression (old/new pairs) on file and runs
// the allocation ledger's row, which must fail and name the row.
func wantLedgerFailure(t *testing.T, row, file string, oldNew ...string) {
	if testing.Short() {
		t.Skip("builds and runs a test binary of a tampered tree")
	}
	t.Parallel()
	out, err := goOverlay(t, file, oldNew,
		"test", "-count=1", "-run", "TestAllocLedger/^"+row+"$", "../..")
	if err == nil || !strings.Contains(out, "row want got") || !strings.Contains(out, " "+row+" ") {
		t.Errorf("the allocation ledger did not catch the regression in row %s (err %v):\n%s", row, err, out)
	}
}

// TestTamperSchedulerTimerStop drops the deferred Stop of the deadline
// timer Scheduler.Run arms, so a search that finishes early leaves the timer
// to fire into a finished scheduler. Caught by go test:
// TestSchedulerDeadlineTimerStopped sees the flag set after Run returned.
func TestTamperSchedulerTimerStop(t *testing.T) {
	wantTestFailure(t, "../search", "the deadline timer fired after Run returned", "scheduler.go",
		"\t\t\tdefer t.Stop()\n", "\t\t\t_ = t\n",
		"-run", "^TestSchedulerDeadlineTimerStopped$")
}

// TestTamperScaleIdentityShortcut returns a histogram scaled by 1 unchanged
// — plausible, and wrong: the NDV decay moves even at factor 1, and DeriveJoin
// would then cap a shared source's NDV. Caught by go test: the seed corpus of
// FuzzHistogramScale, which holds lazy scaling to the eager reference.
func TestTamperScaleIdentityShortcut(t *testing.T) {
	wantTestFailure(t, "../stats", "lazy Scale differs from the eager reference", "histogram.go",
		"\ts := &Histogram{factor: factor, n: h.n}",
		"\tif factor == 1 {\n\t\treturn h\n\t}\n\ts := &Histogram{factor: factor, n: h.n}",
		"-run", "^FuzzHistogramScale$")
}

// TestTamperLookupUnbufferedSend makes the metadata lookup's result channel
// unbuffered: after a lookup times out nobody receives, and the provider
// goroutine blocks on its send forever. Caught by go test: md's leak check
// after the lookup-timeout test.
func TestTamperLookupUnbufferedSend(t *testing.T) {
	wantTestFailure(t, "../md", "leakcheck: goroutines outlived the tests", "accessor.go",
		"ch := make(chan result, 1)", "ch := make(chan result)",
		"-run", "TestLookupTimeoutSlowProvider")
}

// TestTamperBestKeepsFirst makes a group's context keep the first plan
// offered for a request instead of the cheapest. Caught by go test: the
// reference costing of the Memo (TestSearchFindsReferenceBest) finds
// cheaper plans than the ones the search recorded.
func TestTamperBestKeepsFirst(t *testing.T) {
	wantTestFailure(t, "../tpcds", "the reference derives", "../memo/optcontext.go",
		"if c.best == nil || e.cost < c.bestCosting.cost {", "if c.best == nil {",
		"-timeout=60s", "-run", "^TestSearchFindsReferenceBest$")
}

// TestTamperCostingAcrossRuns lets a costing serve every later scheduler
// run, so a second stage reuses what the first learnt of its children's
// best plans after improving them. Caught by go test: under a two-stage
// search the reference costing derives other costs than the local tables
// hold.
func TestTamperCostingAcrossRuns(t *testing.T) {
	wantTestFailure(t, "../tpcds", "--- FAIL: TestSearchFindsReferenceBestAcrossStages", "../memo/local.go",
		"for i := ge.costings; i > m.runStart; {", "for i := ge.costings; i != 0; {",
		"-timeout=60s", "-run", "^TestSearchFindsReferenceBestAcrossStages$")
}

// TestTamperCostingFirstChildKey finds an expression's costing by its first
// child's request alone, so an alternative that asks the second child for
// something else reuses another alternative's plan. Caught by go test: the
// reference costing finds local-table entries it cannot derive.
func TestTamperCostingFirstChildKey(t *testing.T) {
	wantTestFailure(t, "../tpcds", "--- FAIL: TestSearchFindsReferenceBest", "../memo/local.go",
		"if c.off == off || slices.Equal(m.idSlice(c.off, int32(len(ids))), ids) {",
		"if len(ids) == 0 || slices.Equal(m.idSlice(c.off, 1), ids[:1]) {",
		"-timeout=60s", "-run", "^TestSearchFindsReferenceBest$")
}

// TestTamperReqOnlyKeyWithoutOrder keys the Memo's table of request-only
// operators' child requests by the request without its order, so an NLJoin
// or Sort costed under one order reads the children asked under another.
// Caught by go test twice: the reference costing finds local-table entries
// it cannot derive, and the search pin sees another search.
func TestTamperReqOnlyKeyWithoutOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs test binaries of a tampered tree")
	}
	t.Parallel()
	tamper := []string{"\t\ts := m.reqOnlySpan(op.RequestOnlyKind(), id)\n",
		"\t\tr, _ := m.Req(id)\n\t\ts := m.reqOnlySpan(op.RequestOnlyKind(), m.InternReq(props.Required{Dist: r.Dist, Rewindable: r.Rewindable}))\n"}
	for _, tc := range []struct{ pkg, run, want string }{
		{"../tpcds", "^TestSearchFindsReferenceBest$", "TestSearchFindsReferenceBest"},
		{"../experiments", "^TestSearchPinnedOnQ25Q6$", "TestSearchPinnedOnQ25Q6"},
	} {
		out, err := goOverlay(t, "../memo/local.go", tamper, "test", "-count=1", "-timeout=120s", "-run", tc.run, tc.pkg)
		if err == nil || !strings.Contains(out, "--- FAIL: "+tc.want) {
			t.Errorf("go test %s did not fail %s (err %v):\n%s", tc.pkg, tc.want, err, out)
		}
	}
}

// wantTestFailure overlays one regression on pkgDir/file and runs the
// package's tests under a 3 s -timeout (plus any extra go test arguments,
// where a later -timeout wins); they must fail with output containing want.
func wantTestFailure(t *testing.T, pkgDir, want, file, old, new string, args ...string) {
	if testing.Short() {
		t.Skip("builds and runs a test binary of a tampered package")
	}
	t.Parallel()
	args = append([]string{"test", "-count=1", "-timeout=3s"}, args...)
	out, err := goOverlay(t, filepath.Join(pkgDir, file), []string{old, new}, append(args, pkgDir)...)
	if err == nil || !strings.Contains(out, want) {
		t.Errorf("go test %s did not fail with %q (err %v):\n%s", pkgDir, want, err, out)
	}
}

// TestTamperSingleflightUnlock deletes the waiter-path unlock in
// FlightGroup.Do, leaving the group mutex held across the select that waits
// for the flight leader — one stuck leader would then wedge every flight.
// Caught by orcavet's locks analyzer.
func TestTamperSingleflightUnlock(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a production package copy")
	}
	ctl := copyPkgDir(t, filepath.Join("..", "plancache"))
	wantClean(t, runTamper(t, ctl, "plancachectl", Locks), "untampered plancache")

	dir := copyPkgDir(t, filepath.Join("..", "plancache"))
	mutate(t, dir, "singleflight.go",
		"\tif f, ok := g.flights[k]; ok {\n\t\tg.mu.Unlock()\n",
		"\tif f, ok := g.flights[k]; ok {\n")
	wantFinding(t, runTamper(t, dir, "plancachetamper", Locks),
		"singleflight waiting under the group mutex", "held across")
}

// TestTamperEntryAfterAdmit mutates a plan-cache entry after Admit published
// it to the shard — a post-publication write class once caught only in
// review. Caught by orcavet's publish analyzer.
func TestTamperEntryAfterAdmit(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a production package copy")
	}
	ctl := copyPkgDir(t, filepath.Join("..", "serve"))
	wantClean(t, runTamper(t, ctl, "servectl", Publish), "untampered serve")

	dir := copyPkgDir(t, filepath.Join("..", "serve"))
	mutate(t, dir, "plancache.go",
		"\tif !s.plans.Admit(key, e) {\n\t\treturn nil\n\t}\n\treturn e",
		"\tif !s.plans.Admit(key, e) {\n\t\treturn nil\n\t}\n\te.NParams = e.NParams + 1\n\treturn e")
	wantFinding(t, runTamper(t, dir, "servetamper", Publish),
		"entry mutated after shard admission", "after it escaped")
}

// TestTamperDoubleWriteHeader duplicates the status write in the serve
// tier's writeJSON — every handler would then double-commit its response.
// Caught by go test: serve's commit-once ResponseWriter check.
func TestTamperDoubleWriteHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a test binary of a tampered package")
	}
	out, err := goOverlay(t, "../serve/server.go",
		[]string{"\tw.WriteHeader(status)\n", "\tw.WriteHeader(status)\n\tw.WriteHeader(status)\n"},
		"test", "-count=1", "-run", "TestHandlersCommitOnce", "../serve")
	if err == nil || !strings.Contains(out, "committed more than once") {
		t.Errorf("go test did not catch a doubled WriteHeader in writeJSON (err %v):\n%s", err, out)
	}
}

// TestTamperAdHocFaultPoint names the Memo's fault point by its string
// instead of the registered fault.Point. Caught by the compiler: the copy
// no longer type-checks.
func TestTamperAdHocFaultPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a production package copy")
	}
	l := sharedLoader(t)
	if _, err := l.LoadDir(copyPkgDir(t, filepath.Join("..", "memo")), "orcavet.test/tamper/memofaultctl"); err != nil {
		t.Fatalf("untampered memo: %v", err)
	}
	dir := copyPkgDir(t, filepath.Join("..", "memo"))
	mutate(t, dir, "memo.go", "fault.Inject(fault.PointMemoInsert)", `fault.Inject("memo/insert")`)
	_, err := l.LoadDir(dir, "orcavet.test/tamper/memofault")
	if err == nil || !strings.Contains(err.Error(), `cannot use "memo/insert"`) {
		t.Errorf("ad-hoc fault point type-checked (err %v)", err)
	}
}

// TestTamperCopyLocks copies a plan-cache shard, which holds a sync.Mutex,
// and the cache's atomic hit counter. Caught by go vet's copylocks check.
func TestTamperCopyLocks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet over a tampered package")
	}
	out, err := goOverlay(t, "../plancache/zz_copylocks.go",
		[]string{"", "package plancache\n\nfunc copyShard(s *shard) shard { return *s }\n\n" +
			"func hitCount(c *Cache) int64 {\n\tn := c.hits\n\treturn n.Load()\n}\n"},
		"vet", "../plancache")
	for _, want := range []string{"return copies lock value", "assignment copies lock value to n: sync/atomic.Int64"} {
		if err == nil || !strings.Contains(out, want) {
			t.Errorf("go vet did not report %q (err %v):\n%s", want, err, out)
		}
	}
}

// goOverlay runs `go <args[0]> -overlay=... <args[1:]...>` from this package's
// directory with file (relative to it) replaced by its content with each
// oldNew pair rewritten once, or added with content oldNew[1] when
// oldNew[0] is empty, and returns the combined output. The tree on disk is
// untouched.
func goOverlay(t *testing.T, file string, oldNew []string, args ...string) (string, error) {
	t.Helper()
	path, err := filepath.Abs(file)
	if err != nil {
		t.Fatal(err)
	}
	src := oldNew[1]
	if oldNew[0] != "" {
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src = string(orig)
		for i := 0; i < len(oldNew); i += 2 {
			if !strings.Contains(src, oldNew[i]) {
				t.Fatalf("tamper anchor %q not found in %s; update the tamper test alongside the source", oldNew[i], file)
			}
			src = strings.Replace(src, oldNew[i], oldNew[i+1], 1)
		}
	}
	tmp := t.TempDir()
	replacement := filepath.Join(tmp, filepath.Base(file))
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: replacement}})
	if err == nil {
		err = os.WriteFile(replacement, []byte(src), 0o644)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(tmp, "overlay.json"), overlay, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	args = append([]string{args[0], "-overlay=" + filepath.Join(tmp, "overlay.json")}, args[1:]...)
	out, err := exec.Command("go", args...).CombinedOutput()
	return string(out), err
}
