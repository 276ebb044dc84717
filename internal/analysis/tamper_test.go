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
// (the regression is overlaid on the package with `go -overlay`).

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

// TestTamperMemoInsertSprintf re-adds a fmt.Sprintf to Memo.Insert — the
// exact regression the //orcavet:hotpath annotation exists to catch. The
// :alloc allowance on Insert must not waive it: fmt is never waivable.
// Caught by orcavet's hotpath analyzer.
func TestTamperMemoInsertSprintf(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a production package copy")
	}
	ctl := copyPkgDir(t, filepath.Join("..", "memo"))
	wantClean(t, runTamper(t, ctl, "memoctl", HotPath), "untampered memo")

	dir := copyPkgDir(t, filepath.Join("..", "memo"))
	mutate(t, dir, "memo.go",
		"stack := make([]frame, 1, 32)",
		"stack := make([]frame, 1, 32)\n\t_ = fmt.Sprintf(\"insert of %d\", len(stack))")
	wantFinding(t, runTamper(t, dir, "memotamper", HotPath),
		"memo with Sprintf in Insert", "call to fmt.Sprintf")
}

// TestTamperJobKeySprintf re-adds a fmt.Sprintf to Opt(g, req)'s goal
// constructor — the string job keys that were 38% of search CPU behind a
// polymorphic Job.Key() the analyzer could not see through. Goals are now
// built by annotated concrete constructors, so the regression fails the build.
// Caught by orcavet's hotpath analyzer.
func TestTamperJobKeySprintf(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a production package copy")
	}
	ctl := copyPkgDir(t, filepath.Join("..", "search"))
	wantClean(t, runTamper(t, ctl, "searchkeyctl", HotPath), "untampered search")

	dir := copyPkgDir(t, filepath.Join("..", "search"))
	mutate(t, dir, "jobs.go",
		"\treturn JobKey{Kind: JobOpt, Group: g, Req: req}",
		"\t_ = fmt.Sprintf(\"og:%d:%d\", g.ID, req)\n\treturn JobKey{Kind: JobOpt, Group: g, Req: req}")
	wantFinding(t, runTamper(t, dir, "searchkeytamper", HotPath),
		"search with Sprintf in optGroupKey", "call to fmt.Sprintf")
}

// TestTamperSchedulerWorkerDone deletes the worker goroutine's WaitGroup
// pairing in Scheduler.Run: the spawned literal then runs an unbounded drain
// loop with no provable stop path. Caught by orcavet's golifetime analyzer.
func TestTamperSchedulerWorkerDone(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a production package copy")
	}
	ctl := copyPkgDir(t, filepath.Join("..", "search"))
	wantClean(t, runTamper(t, ctl, "searchctl", GoLifetime), "untampered search")

	dir := copyPkgDir(t, filepath.Join("..", "search"))
	mutate(t, dir, "scheduler.go",
		"go func() {\n\t\t\tdefer wg.Done()\n\t\t\ts.worker()\n\t\t}()",
		"go func() {\n\t\t\ts.worker()\n\t\t}()")
	wantFinding(t, runTamper(t, dir, "searchtamper", GoLifetime),
		"scheduler without worker Done pairing", "no provable stop path")
}

// TestTamperWorkerPoolLoop strips the gpos worker pool's two stop guarantees
// at once — the wg.Done pairing and the close-terminated range — leaving a
// bare receive loop no caller can ever stop. Caught by orcavet's golifetime
// analyzer.
func TestTamperWorkerPoolLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a production package copy")
	}
	ctl := copyPkgDir(t, filepath.Join("..", "gpos"))
	wantClean(t, runTamper(t, ctl, "gposctl", GoLifetime), "untampered gpos")

	dir := copyPkgDir(t, filepath.Join("..", "gpos"))
	mutate(t, dir, "tasks.go",
		"\tdefer p.wg.Done()\n\tfor t := range p.tasks {\n\t\tp.runTask(t)\n\t}",
		"\tfor {\n\t\tp.runTask(<-p.tasks)\n\t}")
	wantFinding(t, runTamper(t, dir, "gpostamper", GoLifetime),
		"worker pool with unstoppable receive loop", "no provable stop path")
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
	out, err := goOverlay(t, filepath.Join("..", "serve"), "server.go",
		"\tw.WriteHeader(status)\n",
		"\tw.WriteHeader(status)\n\tw.WriteHeader(status)\n",
		"test", "-count=1", "-run", "TestHandlersCommitOnce")
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

// TestTamperCopyLocks copies a Memo group, which holds a sync.Mutex, and the
// Memo's atomic group count. Caught by go vet's copylocks check.
func TestTamperCopyLocks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet over a tampered package")
	}
	out, err := goOverlay(t, filepath.Join("..", "memo"), "zz_copylocks.go", "",
		"package memo\n\nfunc copyGroup(g *Group) Group { return *g }\n\n"+
			"func groupCount(m *Memo) int64 {\n\tn := m.groupN\n\treturn n.Load()\n}\n",
		"vet")
	for _, want := range []string{"return copies lock value", "assignment copies lock value to n: sync/atomic.Int64"} {
		if err == nil || !strings.Contains(out, want) {
			t.Errorf("go vet did not report %q (err %v):\n%s", want, err, out)
		}
	}
}

// goOverlay runs `go <verb> -overlay=... <args> .` in pkgDir with file
// replaced by its content with old rewritten to new (once), or added with
// content new when old is empty, and returns the combined output. The tree
// on disk is untouched.
func goOverlay(t *testing.T, pkgDir, file, old, new, verb string, args ...string) (string, error) {
	t.Helper()
	path, err := filepath.Abs(filepath.Join(pkgDir, file))
	if err != nil {
		t.Fatal(err)
	}
	src := new
	if old != "" {
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(orig), old) {
			t.Fatalf("tamper anchor %q not found in %s; update the tamper test alongside the source", old, file)
		}
		src = strings.Replace(string(orig), old, new, 1)
	}
	tmp := t.TempDir()
	replacement := filepath.Join(tmp, file)
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
	args = append([]string{verb, "-overlay=" + filepath.Join(tmp, "overlay.json")}, args...)
	cmd := exec.Command("go", append(args, ".")...)
	cmd.Dir = filepath.Dir(path)
	out, err := cmd.CombinedOutput()
	return string(out), err
}
