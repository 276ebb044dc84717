package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden-file convention: a fixture line carries one `// want "rx" "rx"`
// comment listing regexps that must each match one diagnostic reported on
// that line. Lines without a want comment must stay silent. Fixtures live in
// testdata/src/<name>/ and are loaded as a package outside the module graph,
// so they may contain deliberate invariant violations — or, for invariants
// the type system now carries, deliberate type errors — without breaking
// the build.

var (
	loaderOnce sync.Once
	loaderInst *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderInst, loaderErr = NewLoader("")
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderInst
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// runFixture loads testdata/src/<fixture> and checks the analyzer's filtered
// diagnostics against the // want expectations.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	runFixtureDirs(t, a, nil, fixture, "")
}

// runFixtureDirs loads one fixture package per subdir (in order, so earlier
// packages are importable by later ones), runs the analyzer over the whole
// set, and checks // want expectations across every fixture file. An empty
// subdir names the fixture directory itself.
func runFixtureDirs(t *testing.T, a *Analyzer, cfg *Config, fixture string, subdirs ...string) {
	t.Helper()
	l := sharedLoader(t)
	var pkgs []*Package
	for _, sub := range subdirs {
		dir := filepath.Join("testdata", "src", fixture)
		pkgPath := "orcavet.test/" + fixture
		if sub != "" {
			dir = filepath.Join(dir, sub)
			pkgPath += "/" + sub
		}
		pkg, err := l.LoadDir(dir, pkgPath)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkgPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	checkWants(t, pkgs[0].Fset, files, RunModule(pkgs, []*Analyzer{a}, cfg))
}

// runTypeErrorFixture type-checks testdata/src/<fixture> against the real
// module packages and checks the type errors against the // want
// expectations: the fixture seeds misuse that the compiler now rejects.
func runTypeErrorFixture(t *testing.T, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	var diags []Diagnostic
	conf := types.Config{Importer: sharedLoader(t), Error: func(err error) {
		te := err.(types.Error)
		diags = append(diags, Diagnostic{Pos: te.Fset.Position(te.Pos), Analyzer: "compiler", Message: te.Msg})
	}}
	if _, err := conf.Check(fixturePkgPrefix+fixture, fset, files, nil); err == nil {
		t.Fatalf("fixture %s type-checks; want the seeded errors", fixture)
	}
	checkWants(t, fset, files, diags)
}

// checkWants matches diagnostics one-to-one against the // want
// expectations of the files.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitQuoted(t, c, m[1]) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], rx)
				}
			}
		}
	}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := -1
		for i, rx := range wants[k] {
			if rx.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, rxs := range wants {
		for _, rx := range rxs {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(k.file), k.line, rx)
		}
	}
}

// splitQuoted parses the tail of a want comment: one or more regexps quoted
// with double quotes or backticks.
func splitQuoted(t *testing.T, c *ast.Comment, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		q := s[0]
		if q != '"' && q != '`' {
			t.Fatalf("malformed want comment %q (expected quoted regexps)", c.Text)
		}
		end := strings.IndexByte(s[1:], q)
		if end < 0 {
			t.Fatalf("unterminated regexp in want comment %q", c.Text)
		}
		out = append(out, s[1:1+end])
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}
