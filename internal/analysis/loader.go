package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Sources map[string][]byte // filename -> source bytes
	Types   *types.Package
	Info    *types.Info

	ignores map[string][]*ignoreEntry // filename -> parsed ignore directives
}

// Loader type-checks packages of the enclosing module. Package metadata and
// dependency export data come from `go list -export`; only the packages
// under analysis are parsed and checked from source, exactly like the go
// vet driver. Loader is not safe for concurrent use.
type Loader struct {
	ModuleDir string

	fset    *token.FileSet
	imp     types.Importer
	exports map[string]string // import path -> export data file
	meta    map[string]*listPkg
	extra   map[string]*types.Package // packages checked from source (fixtures)
	srcPkgs map[string]*Package       // module packages checked from source, by import path
}

// Import implements types.Importer: packages previously checked from source
// (fixture packages registered by LoadDir) shadow the gc export-data importer,
// which lets one fixture package import another even though `go list` cannot
// resolve their orcavet.test/... paths.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.extra[path]; ok {
		return p, nil
	}
	return l.imp.Import(path)
}

type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// NewLoader builds a loader rooted at the module containing dir (or dir
// itself when empty, resolved from the working directory).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModuleDir: root,
		fset:      token.NewFileSet(),
		exports:   make(map[string]string),
		meta:      make(map[string]*listPkg),
		extra:     make(map[string]*types.Package),
		srcPkgs:   make(map[string]*Package),
	}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookupExport)
	return l, nil
}

func findModuleRoot(dir string) (string, error) {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

func (l *Loader) goList(args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// list runs `go list -export -deps` over the patterns, caching metadata and
// export-data locations for the whole dependency closure. It returns the
// root (non-dependency) packages in listing order.
func (l *Loader) list(patterns ...string) ([]*listPkg, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard,DepOnly,Error",
	}, patterns...)
	out, err := l.goList(args...)
	if err != nil {
		return nil, err
	}
	var roots []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: loading %s: %s", p.ImportPath, p.Error.Err)
		}
		l.meta[p.ImportPath] = p
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			roots = append(roots, p)
		}
	}
	return roots, nil
}

// lookupExport feeds the gc importer the export data recorded by list.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	exp, ok := l.exports[path]
	if !ok {
		if _, err := l.list(path); err != nil {
			return nil, err
		}
		if exp, ok = l.exports[path]; !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
	}
	return os.Open(exp)
}

// Load type-checks the packages matching the go list patterns (e.g. "./...")
// from source and returns them in listing order. Test files are not
// included; `go vet` covers those.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	roots, err := l.list(patterns...)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(roots))
	for _, r := range roots {
		if len(r.GoFiles) == 0 {
			continue
		}
		// A module package already checked from source is returned as-is: a
		// re-check would mint a second types.Package for the same path while
		// everything that imported the first keeps referencing it, splitting
		// named-type identity for every later type-check through this loader.
		if pkg, ok := l.srcPkgs[r.ImportPath]; ok {
			pkgs = append(pkgs, pkg)
			continue
		}
		files := make([]string, len(r.GoFiles))
		for i, f := range r.GoFiles {
			files[i] = filepath.Join(r.Dir, f)
		}
		pkg, err := l.check(r.ImportPath, r.Dir, files)
		if err != nil {
			return nil, err
		}
		// Register the source-checked package so later packages in the
		// dependency-ordered listing import *this* types.Package rather than
		// its export-data twin. Type identity must hold across packages:
		// interface devirtualization compares method signatures that
		// mention types of other loaded packages.
		l.extra[r.ImportPath] = pkg.Types
		l.srcPkgs[r.ImportPath] = pkg
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir type-checks the .go files of one directory as a package with the
// given import path, resolving its imports through the module. This is the
// entry point for testdata fixture packages, which live outside the module's
// package graph.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	pkg, err := l.check(pkgPath, dir, files)
	if err != nil {
		return nil, err
	}
	l.extra[pkgPath] = pkg.Types
	return pkg, nil
}

func (l *Loader) check(pkgPath, dir string, filenames []string) (*Package, error) {
	pkg := &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    l.fset,
		Sources: make(map[string][]byte),
	}
	for _, fn := range filenames {
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, fn, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Sources[fn] = src
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Name = pkg.Files[0].Name.Name
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
