package optgen

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"sort"
)

// header is the marker every generated Go file carries; check.sh's drift
// gate relies on `go generate ./...` + git diff, and humans rely on the
// DO NOT EDIT convention.
const header = "// Code generated by cmd/optgen from defs/*.opt. DO NOT EDIT.\n\n"

// gen accumulates one generated Go source file.
type gen struct {
	buf bytes.Buffer
}

func (g *gen) p(format string, args ...interface{}) {
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteByte('\n')
}

// doc emits a doc comment block.
func (g *gen) doc(lines []string) {
	for _, l := range lines {
		if l == "" {
			g.p("//")
		} else {
			g.p("// %s", l)
		}
	}
}

// gofmt formats the accumulated source; a format failure is an optgen bug
// and surfaces the raw source for debugging.
func (g *gen) gofmt() ([]byte, error) {
	out, err := format.Source(g.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("optgen: generated source does not parse: %v\n%s", err, g.buf.Bytes())
	}
	return out, nil
}

// Outputs renders every generated artifact, keyed by path relative to the
// repository root. Deterministic: same catalog, same bytes.
func Outputs(cat *Catalog) (map[string][]byte, error) {
	outs := make(map[string][]byte)
	type job struct {
		path string
		fn   func(*Catalog) ([]byte, error)
	}
	jobs := []job{
		{"internal/ops/ops.gen.go", genOps},
		{"internal/xform/rules.gen.go", genXform},
		{"internal/dxl/physparams.gen.go", genDXL},
		{"internal/cost/dispatch.gen.go", genCostDispatch},
		{"internal/stats/dispatch.gen.go", genStatsDispatch},
		{"internal/engine/dispatch.gen.go", genEngineDispatch},
		{"internal/engine/legs.gen_test.go", genLegs},
		{"docs/opmatrix.md", genOpMatrix},
	}
	for _, j := range jobs {
		b, err := j.fn(cat)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", j.path, err)
		}
		outs[j.path] = b
	}
	return outs, nil
}

// Generate writes every artifact under root, reporting which files changed.
func Generate(cat *Catalog, root string) (changed []string, err error) {
	outs, err := Outputs(cat)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(outs))
	for p := range outs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, rel := range paths {
		abs := filepath.Join(root, rel)
		old, readErr := os.ReadFile(abs)
		if readErr == nil && bytes.Equal(old, outs[rel]) {
			continue
		}
		if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(abs, outs[rel], 0o644); err != nil {
			return nil, err
		}
		changed = append(changed, rel)
	}
	return changed, nil
}

// opsOfKind filters the catalog preserving declaration order.
func opsOfKind(cat *Catalog, kinds ...string) []*OpDef {
	var out []*OpDef
	for _, o := range cat.Ops {
		for _, k := range kinds {
			if o.Kind == k {
				out = append(out, o)
			}
		}
	}
	return out
}
