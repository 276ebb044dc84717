package analysis

import (
	"fmt"
	"strings"
	"testing"
)

// The lock and publication families keep one fixture per rule group they
// absorbed, so every // want case of the merged checks still runs.
func TestLockCheck(t *testing.T)    { runFixture(t, Locks, "lockcheck") }
func TestMemoImmut(t *testing.T)    { runFixture(t, Publish, "memoimmut") }
func TestAtomicPub(t *testing.T)    { runFixture(t, Publish, "atomicpub") }
func TestPubImmut(t *testing.T)     { runFixture(t, Publish, "pubimmut") }
func TestOpExhaustive(t *testing.T) { runFixture(t, OpExhaustive, "opexhaustive") }
func TestErrDrop(t *testing.T)      { runFixture(t, ErrDrop, "errdrop") }
func TestHotPath(t *testing.T)      { runFixture(t, HotPath, "hotpath") }
func TestGoLifetime(t *testing.T)   { runFixture(t, GoLifetime, "golifetime") }

// TestFaultPoint: fault.Point is constructible only inside package fault, so
// an ad-hoc, misspelled or foreign fault point is a compile error.
func TestFaultPoint(t *testing.T) { runTypeErrorFixture(t, "faultpoint") }

// TestTypedAtomics: a field declared as a typed sync/atomic value admits no
// plain read, write or arithmetic.
func TestTypedAtomics(t *testing.T) { runTypeErrorFixture(t, "typedatomic") }

func TestLockOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MDPkgPath = "orcavet.test/lockorder/mdx"
	runFixtureDirs(t, Locks, cfg, "lockorder", "mdx", "")
}

// TestParseHotpath pins the directive grammar corners that cannot carry an
// inline `// want` expectation (the expectation text would become the reason).
func TestParseHotpath(t *testing.T) {
	if _, malformed := parseHotpath(""); malformed == "" {
		t.Errorf("reason-less directive not reported as malformed")
	}
	allow, malformed := parseHotpath(":alloc,lock amortized and pinned")
	if malformed != "" || len(allow) != 2 || !allow[HotAlloc] || !allow[HotLock] {
		t.Errorf("allowance list mis-parsed: allow=%v malformed=%q", allow, malformed)
	}
	if _, malformed := parseHotpath(":concat because"); malformed == "" {
		t.Errorf("concat allowance accepted; fmt/concat must never be waivable")
	}
	if _, malformed := parseHotpath(":bogus because"); malformed == "" {
		t.Errorf("unknown allowance accepted")
	}
}

func TestCtxFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MDPkgPath = "orcavet.test/ctxflow/mdx"
	runFixtureDirs(t, CtxFlow, cfg, "ctxflow", "mdx", "client")
}

// TestIgnoreDirectives exercises the scoped suppression machinery: a scoped
// directive consumes a matching finding, and (with ReportUnusedIgnores on)
// malformed, unscoped or matching-nothing directives are themselves
// findings.
func TestIgnoreDirectives(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReportUnusedIgnores = true
	runFixtureDirs(t, ErrDrop, cfg, "ignores", "")
}

// TestSARIFStableRuleIDs pins the suite's rule IDs — the analyzer names
// every finding carries and //orcavet:ignore:<analyzer> directives key on —
// so renaming, adding or dropping an analyzer shows up in review as a test
// edit.
func TestSARIFStableRuleIDs(t *testing.T) {
	want := []string{"locks", "publish", "hotpath", "golifetime", "ctxflow", "errdrop", "opexhaustive"}
	var got []string
	for _, a := range All() {
		got = append(got, a.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("suite = %v, want %v", got, want)
	}
}

// TestSuiteCleanOnRepo is the self-hosting check: the analyzer suite must
// report nothing on the module's own packages (after suppressions), which is
// also enforced by check.sh via `go run ./cmd/orcavet ./...`. The suite runs
// as one module-wide pass — locks and ctxflow are interprocedural and see
// nothing useful package-by-package — with unused-ignore reporting on, so a
// stale waiver fails this test too.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l := sharedLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	cfg := DefaultConfig()
	cfg.ReportUnusedIgnores = true
	for _, d := range RunModule(pkgs, All(), cfg) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestFactsDeterministic computes module facts twice with the package list
// reversed and demands identical summaries: analyzer output must not depend
// on load order.
func TestFactsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l := sharedLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	rev := make([]*Package, len(pkgs))
	for i, p := range pkgs {
		rev[len(pkgs)-1-i] = p
	}
	fwd, bwd := factsDigest(ComputeFacts(pkgs, DefaultConfig())), factsDigest(ComputeFacts(rev, DefaultConfig()))
	if fwd != bwd {
		t.Fatalf("facts depend on package order:\nforward  %d bytes\nreversed %d bytes", len(fwd), len(bwd))
	}
}

// factsDigest renders the cross-function facts canonically.
func factsDigest(f *Facts) string {
	var b strings.Builder
	for _, k := range factKeys(f) {
		ff := f.Funcs[k]
		fmt.Fprintf(&b, "%s calls=%v iface=%v carries=%v reach=%v recv=%v locks=%v mut=%v/%v hot=%v cold=%v\n",
			k, ff.Calls, ff.IfaceCalls, ff.CarriesError, f.Reachable[k], ff.RecvLocks, ff.TransLocks,
			ff.MutatesRecv, ff.MutatesParams, ff.Hotpath, ff.Coldpath)
		for _, sp := range ff.Spawns {
			fmt.Fprintf(&b, "  spawn %s %s\n", sp.Target, sp.Stop)
		}
	}
	for _, id := range sortedKeys(f.IfaceImpls) {
		fmt.Fprintf(&b, "%s -> %v\n", id, f.IfaceImpls[id])
	}
	return b.String()
}

// BenchmarkOrcavet measures a full-suite module pass (excluding the one-time
// load and type-check, which the loader caches).
func BenchmarkOrcavet(b *testing.B) {
	l, err := NewLoader("")
	if err != nil {
		b.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		b.Fatalf("loading module: %v", err)
	}
	cfg := DefaultConfig()
	cfg.ReportUnusedIgnores = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := RunModule(pkgs, All(), cfg); len(diags) != 0 {
			b.Fatalf("suite not clean: %d findings", len(diags))
		}
	}
}

func TestLoaderBasics(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.Load("./internal/gpos")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.PkgPath != "orca/internal/gpos" || p.Types == nil || len(p.Files) == 0 {
		t.Fatalf("bad package: %+v", p.PkgPath)
	}
	if p.Types.Scope().Lookup("WorkerPool") == nil {
		t.Fatalf("type information missing WorkerPool")
	}
}
