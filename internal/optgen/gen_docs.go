package optgen

import (
	"fmt"
	"strings"
)

// genOpMatrix emits docs/opmatrix.md: the operator and rule inventory as a
// generated artifact. The coverage legs are guaranteed by construction: the
// generated dispatch switches in cost/stats/engine/dxl reference every
// declared operator, so a missing hand-written handler is a compile error,
// and the generated TestOperatorLegs covers the rest.
func genOpMatrix(cat *Catalog) ([]byte, error) {
	var b strings.Builder
	b.WriteString("# Operator coverage matrix\n\n")
	b.WriteString("Generated by `cmd/optgen` from `defs/*.opt` (run `go generate ./...`).\n")
	b.WriteString("Do not edit by hand: check.sh regenerates all optgen outputs and fails\n")
	b.WriteString("on drift.\n\n")
	b.WriteString("Legs per kind — logical: xform + stats + dxl-serialize + dxl-parse;\n")
	b.WriteString("physical/enforcer: cost + engine + dxl-serialize; scalar: engine +\n")
	b.WriteString("dxl-serialize + dxl-parse. The cost, stats, engine and physical\n")
	b.WriteString("dxl-serialize legs are generated dispatch switches: a declared operator\n")
	b.WriteString("without its hand-written handler fails `go build`. Every logical\n")
	b.WriteString("operator must be matched by one of the rules listed below, or\n")
	b.WriteString("`go generate` fails. The DXL query round trip and scalar evaluation\n")
	b.WriteString("legs are checked by the generated TestOperatorLegs\n")
	b.WriteString("(internal/engine/legs.gen_test.go).\n\n")

	b.WriteString("| operator | kind | children | identity params | struct |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, o := range cat.Ops {
		children := fmt.Sprintf("%d", o.Arity)
		if o.Arity == -1 {
			children = "variadic"
		}
		ids := make([]string, 0, len(o.Fields))
		for _, f := range o.IdentityFields() {
			ids = append(ids, f.Name)
		}
		params := strings.Join(ids, ", ")
		if params == "" {
			params = "—"
		}
		src := "generated"
		if o.Hand {
			src = "hand-written"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", o.Name, o.Kind, children, params, src)
	}

	b.WriteString("\n## Transformation rules\n\n")
	b.WriteString("Skeletons (Name/Kind/Matches/Apply dispatch, dense rule IDs) are\n")
	b.WriteString("generated; match predicates (`check`) and apply bodies are\n")
	b.WriteString("hand-written in internal/xform.\n\n")
	b.WriteString("| rule | kind | matches | custom match predicate |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, r := range cat.Rules {
		check := "no"
		if r.Check {
			check = "yes"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", r.Name, r.Kind, r.Match, check)
	}
	return []byte(b.String()), nil
}
