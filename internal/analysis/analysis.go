// Package analysis implements orcavet, the static analyzers for optimizer
// invariants that neither the compiler, go vet, nor a generated test already
// enforces: mutex discipline and lock ordering (locks), immutability of
// objects once published (publish), context propagation through request
// paths (ctxflow), non-discarded GPOS/DXL errors (errdrop) and exhaustive
// operator-kind switches (opexhaustive). The suite is built
// directly on the stdlib go/ast + go/types packages (no external
// dependencies); the loader shells out to `go list -export` for package
// metadata and export data, mirroring how the go vet driver loads packages.
//
// Analyzers come in two shapes. Per-package analyzers (Run) see one
// type-checked package at a time. Module analyzers (RunModule) see every
// loaded package at once plus the shared Facts store — per-function
// interprocedural summaries ("drops its ctx", "carries a gpos/dxl error",
// "takes these lock classes") computed once per run and also consulted by
// the per-package analyzers to reason across function boundaries.
//
// A diagnostic can be suppressed with a scoped
// `//orcavet:ignore:<analyzer> <reason>` comment on the same line (or on the
// line above, when the comment stands alone); unused directives are
// themselves reported so waivers cannot outlive their findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Exactly one of Run (per-package)
// and RunModule (whole-module) is set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //orcavet:ignore:<analyzer> directives ("locks", ...).
	Name string
	// Doc is a one-paragraph description shown by `orcavet -help`.
	Doc string
	// Run reports the analyzer's findings on one package.
	Run func(*Pass)
	// RunModule reports findings over all loaded packages at once, for
	// checks that are inherently cross-package (lock ordering, call-graph
	// reachability).
	RunModule func(*ModulePass)
}

// Package paths whose invariants the analyzers enforce.
const (
	memoPkgPath      = "orca/internal/memo"
	opsPkgPath       = "orca/internal/ops"
	gposPkgPath      = "orca/internal/gpos"
	dxlPkgPath       = "orca/internal/dxl"
	searchPkgPath    = "orca/internal/search"
	mdPkgPath        = "orca/internal/md"
	servePkgPath     = "orca/internal/serve"
	plancachePkgPath = "orca/internal/plancache"
)

// Config points the interprocedural analyzers at the packages playing each
// architectural role. The zero value is unusable; use DefaultConfig. Tests
// substitute fixture package paths.
type Config struct {
	// MDPkgPath hosts the Provider interface and the Accessor timeout layer.
	MDPkgPath string
	// RootPkgPaths are the packages whose exported functions are optimizer
	// entry points; ctxflow reachability starts there. Fixture packages
	// (orcavet.test/...) are always treated as roots.
	RootPkgPaths []string
	// ReportUnusedIgnores adds "ignore" diagnostics for //orcavet:ignore
	// directives that suppressed nothing. Enabled for full-suite runs; off
	// for single-analyzer fixture runs, where directives scoped to other
	// analyzers are legitimately idle.
	ReportUnusedIgnores bool
}

// DefaultConfig returns the configuration matching the repo's layout.
func DefaultConfig() *Config {
	return &Config{
		MDPkgPath:    mdPkgPath,
		RootPkgPaths: []string{mdPkgPath, "orca/internal/core", searchPkgPath, gposPkgPath, servePkgPath, plancachePkgPath},
	}
}

// fixturePkgPrefix marks testdata fixture packages, which are self-rooted:
// their exported functions count as entry points without configuration,
// and they may stand in for the memo, plancache and serve packages.
const fixturePkgPrefix = "orcavet.test/"

// isPkg reports whether path is the given package or a fixture standing in
// for it.
func isPkg(path, want string) bool {
	return path == want || strings.HasPrefix(path, fixturePkgPrefix)
}

// isRootPkg reports whether pkgPath's exported functions are entry points.
func (c *Config) isRootPkg(pkgPath string) bool {
	if strings.HasPrefix(pkgPath, fixturePkgPrefix) {
		return true
	}
	for _, p := range c.RootPkgPaths {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// Pass carries one type-checked package through a per-package analyzer,
// together with the module-wide facts when the driver computed them.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Facts    *Facts
	Config   *Config

	diags *[]Diagnostic
}

// ModulePass carries every loaded package through a module analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Facts    *Facts
	Config   *Config
	Fset     *token.FileSet

	diags *[]Diagnostic
}

// Reportf records a module-analyzer finding at pos.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*mp.diags = append(*mp.diags, Diagnostic{
		Pos:      mp.Fset.Position(pos),
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object denoted by the identifier, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// RunModule applies the analyzers to the loaded packages and returns their
// findings: facts are computed once over all packages, per-package analyzers
// run on each package, module analyzers run once, suppressed diagnostics are
// filtered out (marking their directives used), and — when the config asks —
// unused directives are reported. The result is sorted by position.
func RunModule(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	facts := ComputeFacts(pkgs, cfg)
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.RunModule != nil {
			mp := &ModulePass{Analyzer: a, Pkgs: pkgs, Facts: facts, Config: cfg, diags: &diags}
			if len(pkgs) > 0 {
				mp.Fset = pkgs[0].Fset
			}
			a.RunModule(mp)
		} else {
			for _, pkg := range pkgs {
				pass := &Pass{Analyzer: a, Pkg: pkg, Facts: facts, Config: cfg, diags: &diags}
				a.Run(pass)
			}
		}
	}
	byFile := make(map[string]*Package)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			byFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		owner := byFile[d.Pos.Filename]
		if owner == nil || !owner.suppress(d) {
			kept = append(kept, d)
		}
	}
	if cfg.ReportUnusedIgnores {
		kept = append(kept, unusedIgnores(pkgs)...)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// All returns the orcavet analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Locks, Publish, CtxFlow, ErrDrop, OpExhaustive}
}

// ---------------------------------------------------------------------------
// Shared AST/type helpers

// walkStack traverses every file of the pass's package keeping an ancestor
// stack. fn is called pre-order; returning false prunes the subtree. The
// stack excludes n itself; stack[len-1] is n's parent.
func (p *Pass) walkStack(fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			ok := fn(n, stack)
			if ok {
				stack = append(stack, n)
			}
			return ok
		})
	}
}

// namedType returns the named type of t after stripping pointers and
// aliases, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// calleeObj resolves the called function or method object of a call, or nil
// (e.g. for calls through function-typed variables or conversions).
func (p *Pass) calleeObj(call *ast.CallExpr) types.Object { return calleeObjPkg(p.Pkg, call) }

// calleeObjPkg is calleeObj without a Pass (module analyzers and facts
// collection resolve callees per package).
func calleeObjPkg(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return o
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		// Package-qualified call: pkg.F(...).
		if o, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return o
		}
	}
	return nil
}
