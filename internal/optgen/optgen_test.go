package optgen

import (
	"bytes"
	"flag"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func TestParseSmallFixture(t *testing.T) {
	src, err := os.ReadFile("testdata/small.opt")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := Parse("testdata/small.opt", string(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Ops) != 3 || len(cat.Rules) != 2 {
		t.Fatalf("parsed %d ops, %d rules; want 3, 2", len(cat.Ops), len(cat.Rules))
	}
	toy := cat.Op("Toy")
	if toy == nil || toy.Kind != KindLogical || toy.Arity != 0 {
		t.Fatalf("Toy parsed wrong: %+v", toy)
	}
	if len(toy.Doc) != 1 || !strings.Contains(toy.Doc[0], "logical get") {
		t.Errorf("doc comment not attached: %v", toy.Doc)
	}
	if got := len(toy.IdentityFields()); got != 2 {
		t.Errorf("Toy identity fields = %d, want 2 (Hint is noident)", got)
	}
	scan := cat.Op("ToyScan")
	if scan.Fields[0].DXLName != "Table" || dxlAttr(scan.Fields[0]) != "Table" {
		t.Errorf("dxl= rename not honored: %+v", scan.Fields[0])
	}
	if dxlAttr(toy.Fields[0]) != "RelOid" {
		t.Errorf("Relation default DXL attr = %q, want RelOid", dxlAttr(toy.Fields[0]))
	}
	push := cat.Rules[0]
	if push.Name != "ToySelectPush" || push.Kind != KindExploration || !push.Check || push.Match != "ToySelect" {
		t.Errorf("ToySelectPush parsed wrong: %+v", push)
	}
	impl := cat.Rules[1]
	if impl.Kind != KindImplementation || impl.Check {
		t.Errorf("Toy2ToyScan parsed wrong: %+v", impl)
	}
	if impl.Line == 0 || impl.File != "testdata/small.opt" {
		t.Errorf("rule position not recorded: %s:%d", impl.File, impl.Line)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no-kind", "[CustomName] define X {\nchildren 0\n}\n", "needs a kind tag"},
		{"bad-tag", "[Logical, Wat] define X {\nchildren 0\n}\n", `unknown operator tag "Wat"`},
		{"no-children", "[Logical] define X {\n}\n", "missing a `children N` directive"},
		{"bad-children", "[Logical] define X {\nchildren two\n}\n", "children count must be an integer"},
		{"unterminated", "[Logical] define X {\nchildren 0\n", "unterminated define X"},
		{"bad-field-opt", "[Logical] define X {\nchildren 0\nA Int wat\n}\n", `unknown field option "wat"`},
		{"unknown-type", "[Logical] define X {\nchildren 0\nA Widget\n}\n", "unknown type Widget"},
		{"float-identity", "[Logical] define X {\nchildren 0\nA Float\n}\n", "cannot be an identity field"},
		{"redeclared-op", "[Logical] define X {\nchildren 0\n}\n[Logical] define X {\nchildren 0\n}\n", "operator X redeclared"},
		{"rule-no-kind", "[Logical] define X {\nchildren 0\n}\n[] rule R {\nmatch X\n}\n", "needs a kind tag"},
		{"rule-no-match", "[Logical] define X {\nchildren 0\n}\n[Exploration] rule R {\n}\n", "missing a `match OpName` directive"},
		{"rule-bad-line", "[Logical] define X {\nchildren 0\n}\n[Exploration] rule R {\nmatch X\npattern Y\n}\n", "expected `match OpName`"},
		{"rule-unknown-op", "[Exploration] rule R {\nmatch Nope\n}\n", "matches undeclared operator Nope"},
		{"rule-physical-op", "[Physical] define X {\nchildren 0\n}\n[Exploration] rule R {\nmatch X\n}\n", "rules fire on logical expressions"},
		{"stray-text", "define X {\n", "expected declaration"},
		{"bad-decl", "[Logical] defne X {\n}\n", "expected `define` or `rule`"},
		{"unmatched-logical", "[Logical] define X {\nchildren 0\n}\n", "matched by no rule"},
		{"hand-logical", "[Logical, Hand] define X {\n}\n[Implementation] rule R {\nmatch X\n}\n", "only they, are Hand"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("bad.opt", tc.src)
			if err == nil {
				t.Fatalf("no error, want %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "bad.opt:") {
				t.Errorf("error %q lacks file:line position", err)
			}
		})
	}
}

// TestGoldenOutputs renders the small fixture catalog and compares every
// artifact against testdata/golden/. Regenerate with `go test -update`.
func TestGoldenOutputs(t *testing.T) {
	src, err := os.ReadFile("testdata/small.opt")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := Parse("testdata/small.opt", string(src))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := Outputs(cat)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Outputs(cat)
	if err != nil {
		t.Fatal(err)
	}
	for rel, b := range outs {
		if !bytes.Equal(b, again[rel]) {
			t.Errorf("%s: generation is not deterministic", rel)
		}
		golden := filepath.Join("testdata", "golden", strings.ReplaceAll(rel, "/", "__"))
		if *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, b, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/optgen -update` to create goldens)", err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s differs from golden %s (re-run with -update after reviewing)", rel, golden)
		}
	}
}

// TestRepoDefsRoundTrip parses the real defs/ directory and checks the
// committed generated files byte-match what the generators emit — the unit
// level analogue of check.sh's go-generate drift gate.
func TestRepoDefsRoundTrip(t *testing.T) {
	root := filepath.Join("..", "..")
	cat, err := ParseDir(filepath.Join(root, "defs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Ops) < 30 || len(cat.Rules) < 20 {
		t.Fatalf("suspiciously small catalog: %d ops, %d rules", len(cat.Ops), len(cat.Rules))
	}
	outs, err := Outputs(cat)
	if err != nil {
		t.Fatal(err)
	}
	for rel, want := range outs {
		got, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Errorf("generated artifact missing from the tree: %v", err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: run go generate ./...", rel)
		}
	}
}

// TestOpsInventoryDeclared closes the operator inventory from the Go side:
// internal/ops may hold no operator that defs/*.opt does not declare. Every
// hand-written type with a kind marker (an embedded logicalBase,
// physicalBase or enforcerBase, or its own logical/physical/enforcer method)
// or a scalar Equal(ScalarExpr) method must be a declared Hand operator;
// the generated operators are declared by construction.
func TestOpsInventoryDeclared(t *testing.T) {
	root := filepath.Join("..", "..")
	cat, err := ParseDir(filepath.Join(root, "defs"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := goparser.ParseDir(fset, filepath.Join(root, "internal", "ops"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && !strings.HasSuffix(fi.Name(), ".gen.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(pos token.Pos, name string) {
		if o := cat.Op(name); o == nil || !o.Hand {
			t.Errorf("%s: operator %s is hand-written but not declared Hand in defs/*.opt", fset.Position(pos), name)
		}
	}
	markers := map[string]bool{"logical": true, "physical": true, "enforcer": true}
	bases := map[string]bool{"logicalBase": true, "physicalBase": true, "enforcerBase": true}
	for _, f := range pkgs["ops"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && !bases[n.Name.Name] {
					for _, field := range st.Fields.List {
						if id, ok := field.Type.(*ast.Ident); ok && len(field.Names) == 0 && bases[id.Name] {
							check(n.Pos(), n.Name.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if n.Recv == nil {
					return false
				}
				recv := n.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name := recv.(*ast.Ident).Name
				params := n.Type.Params.List
				isEqual := n.Name.Name == "Equal" && len(params) == 1
				if isEqual {
					id, ok := params[0].Type.(*ast.Ident)
					isEqual = ok && id.Name == "ScalarExpr"
				}
				if isEqual || (markers[n.Name.Name] && !bases[name]) {
					check(n.Pos(), name)
				}
				return false
			}
			return true
		})
	}
}
