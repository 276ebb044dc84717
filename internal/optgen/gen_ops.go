package optgen

import (
	"fmt"
	"strings"
)

// genOps emits internal/ops/ops.gen.go: the operator struct for every
// non-Hand definition plus its Name/Arity/ParamHash/ParamEqual methods. The
// semantic halves — OutputCols, Describe, AppendChildReqs, Derive,
// constructors — stay hand-written in the ops package.
func genOps(cat *Catalog) ([]byte, error) {
	var g gen
	g.buf.WriteString(header)
	g.p("package ops")
	g.p("")
	imports := opsImports(cat)
	if len(imports) > 0 {
		g.p("import (")
		for _, im := range imports {
			g.p("\t%q", im)
		}
		g.p(")")
		g.p("")
	}
	var hand []*OpDef
	for _, o := range cat.Ops {
		if o.Hand {
			hand = append(hand, o)
			continue
		}
		if err := genOpDef(&g, o); err != nil {
			return nil, err
		}
	}
	genRewrite(&g, cat)
	if len(hand) > 0 {
		g.p("// The hand-written operators declared in defs/: each must exist with")
		g.p("// the declared kind.")
		g.p("var (")
		for _, o := range hand {
			g.p("\t_ %s = (*%s)(nil)", kindIface[o.Kind], o.Name)
		}
		g.p(")")
	}
	return g.gofmt()
}

// kindIface names the interface each operator kind implements.
var kindIface = map[string]string{
	KindLogical:  "Logical",
	KindPhysical: "Physical",
	KindEnforcer: "Enforcer",
	KindScalar:   "ScalarExpr",
}

// opsImports computes the import list from the field types in use.
func opsImports(cat *Catalog) []string {
	var base, md, props bool
	for _, o := range cat.Ops {
		if o.Hand {
			continue
		}
		for _, f := range o.Fields {
			st := typeTable[f.Type]
			base = base || st.importsBase
			md = md || st.importsMD
			props = props || st.importsProps
		}
	}
	var out []string
	if base {
		out = append(out, "orca/internal/base")
	}
	if md {
		out = append(out, "orca/internal/md")
	}
	if props {
		out = append(out, "orca/internal/props")
	}
	return out
}

func kindBase(kind string) string {
	switch kind {
	case KindLogical:
		return "logicalBase"
	case KindPhysical:
		return "physicalBase"
	case KindEnforcer:
		return "enforcerBase"
	}
	return ""
}

func genOpDef(g *gen, o *OpDef) error {
	if len(o.Doc) > 0 {
		g.doc(o.Doc)
	} else {
		g.p("// %s is the %s %s operator.", o.Name, o.DisplayName(), o.Kind)
	}
	g.p("type %s struct {", o.Name)
	g.p("\t%s", kindBase(o.Kind))
	if len(o.Fields) > 0 {
		g.p("")
		for _, f := range o.Fields {
			g.p("\t%s %s", f.Name, typeTable[f.Type].goType)
		}
	}
	g.p("}")
	g.p("")

	if !o.CustomName {
		g.p("// Name implements Operator.")
		g.p("func (*%s) Name() string { return %q }", o.Name, o.DisplayName())
		g.p("")
	}
	g.p("// Arity implements Operator.")
	g.p("func (*%s) Arity() int { return %d }", o.Name, o.Arity)
	g.p("")

	idFields := o.IdentityFields()
	seed := strings.ToLower(o.Name)
	g.p("// ParamHash implements Operator.")
	if len(idFields) == 0 {
		g.p("func (*%s) ParamHash() uint64 {", o.Name)
		g.p("\treturn hashString(fnvOffset, %q)", seed)
		g.p("}")
	} else {
		g.p("func (x *%s) ParamHash() uint64 {", o.Name)
		g.p("\th := hashString(fnvOffset, %q)", seed)
		for _, f := range idFields {
			line, err := hashStmt(f)
			if err != nil {
				return fmt.Errorf("%s.%s: %v", o.Name, f.Name, err)
			}
			g.p("\t%s", line)
		}
		g.p("\treturn h")
		g.p("}")
	}
	g.p("")

	g.p("// ParamEqual implements Operator.")
	switch {
	case o.PtrIdentity:
		// Identity is pointer identity: the operator embeds out-of-line
		// state (a bound subplan) that structural comparison cannot cover.
		g.p("func (x *%s) ParamEqual(other Operator) bool {", o.Name)
		g.p("\to, ok := other.(*%s)", o.Name)
		g.p("\treturn ok && o == x")
		g.p("}")
	case len(idFields) == 0:
		g.p("func (*%s) ParamEqual(other Operator) bool {", o.Name)
		g.p("\t_, ok := other.(*%s)", o.Name)
		g.p("\treturn ok")
		g.p("}")
	default:
		g.p("func (x *%s) ParamEqual(other Operator) bool {", o.Name)
		g.p("\to, ok := other.(*%s)", o.Name)
		g.p("\tif !ok {")
		g.p("\t\treturn false")
		g.p("\t}")
		for _, f := range idFields {
			cond, err := equalCond(f)
			if err != nil {
				return fmt.Errorf("%s.%s: %v", o.Name, f.Name, err)
			}
			g.p("\tif !(%s) {", cond)
			g.p("\t\treturn false")
			g.p("\t}")
		}
		g.p("\treturn true")
		g.p("}")
	}
	g.p("")
	return nil
}

// genRewrite emits RewriteOpScalars, the walk the plan cache uses to reach
// every constant of a plan: one case per operator with a scalar slot field,
// so a slot declared in defs/ cannot be skipped. The list helpers
// (rewriteSlots and friends) stay hand-written in internal/ops/rewrite.go.
func genRewrite(g *gen, cat *Catalog) {
	g.doc([]string{
		"RewriteOpScalars returns op with every ScalarExpr parameter rewritten by",
		"rw (which receives whole scalar slots, nil included for absent optional",
		"predicates), in field declaration order. Operators are immutable values,",
		"so an unchanged op is returned as-is and a changed one is a shallow copy",
		"— callers never mutate shared trees. The second result reports whether",
		"the rewrite reaches all of the operator's state: false means it carries",
		"out-of-line state (the bound plans of pointer-identity operators), and",
		"the plan cache must refuse the shape.",
	})
	g.p("func RewriteOpScalars(op Operator, rw func(ScalarExpr) ScalarExpr) (Operator, bool) {")
	g.p("\tswitch x := op.(type) {")
	var ptr []string
	for _, o := range cat.Ops {
		if o.Hand {
			continue
		}
		if o.PtrIdentity {
			ptr = append(ptr, "*"+o.Name)
			continue
		}
		var stmts, vars, fields, conds []string
		for _, f := range o.Fields {
			helper, ok := scalarSlot[f.Type]
			if !ok {
				continue
			}
			v := strings.ToLower(f.Name[:1]) + f.Name[1:]
			if helper == "" {
				stmts = append(stmts, fmt.Sprintf("%s := rw(x.%s)", v, f.Name))
				conds = append(conds, fmt.Sprintf("%s != x.%s", v, f.Name))
			} else {
				stmts = append(stmts, fmt.Sprintf("%s, %sChanged := %s(x.%s, rw)", v, v, helper, f.Name))
				conds = append(conds, v+"Changed")
			}
			vars = append(vars, v)
			fields = append(fields, "c."+f.Name)
		}
		if len(vars) == 0 {
			continue
		}
		g.p("\tcase *%s:", o.Name)
		for _, st := range stmts {
			g.p("\t\t%s", st)
		}
		g.p("\t\tif %s {", strings.Join(conds, " || "))
		g.p("\t\t\tc := *x")
		g.p("\t\t\t%s = %s", strings.Join(fields, ", "), strings.Join(vars, ", "))
		g.p("\t\t\treturn &c, true")
		g.p("\t\t}")
	}
	if len(ptr) > 0 {
		g.p("\tcase %s:", strings.Join(ptr, ", "))
		g.p("\t\treturn op, false")
	}
	g.p("\t}")
	g.p("\treturn op, true")
	g.p("}")
	g.p("")
}

// scalarSlot maps each field type that holds scalars to the hand-written
// helper rewriting it ("" for a single Scalar, rewritten by rw itself).
var scalarSlot = map[string]string{
	"Scalar":     "",
	"ScalarList": "rewriteSlots",
	"ProjElems":  "rewriteProjElems",
	"AggElems":   "rewriteAggElems",
	"WinElems":   "rewriteWinElems",
}

// hashStmt emits the ParamHash statement for one identity field.
func hashStmt(f *FieldDef) (string, error) {
	x := "x." + f.Name
	switch f.Type {
	case "String":
		return fmt.Sprintf("h = hashString(h, %s)", x), nil
	case "Bool":
		return fmt.Sprintf("if %s {\n\t\th = hashMix(h, 1)\n\t}", x), nil
	case "Int", "Int64", "ColID", "JoinType", "AggMode", "SubqueryKind":
		return fmt.Sprintf("h = hashMix(h, uint64(%s))", x), nil
	case "Scalar":
		return fmt.Sprintf("h = hashScalar(h, %s)", x), nil
	case "ScalarList":
		return fmt.Sprintf("h = hashScalars(h, %s)", x), nil
	case "Relation", "Index":
		return fmt.Sprintf("h = hashMix(h, uint64(%s.Mdid.OID))", x), nil
	case "ColRefs":
		return fmt.Sprintf("h = hashColRefs(h, %s)", x), nil
	case "ColIDs":
		return fmt.Sprintf("h = hashColIDs(h, %s)", x), nil
	case "ColIDLists":
		return fmt.Sprintf("h = hashColIDLists(h, %s)", x), nil
	case "OrderSpec":
		return fmt.Sprintf("h = hashMix(h, %s.Hash())", x), nil
	case "ProjElems":
		return fmt.Sprintf("h = hashProjElems(h, %s)", x), nil
	case "AggElems":
		return fmt.Sprintf("h = hashAggElems(h, %s)", x), nil
	case "WinElems":
		return fmt.Sprintf("h = hashWinElems(h, %s)", x), nil
	}
	return "", fmt.Errorf("no hash strategy for type %s", f.Type)
}

// equalCond emits the ParamEqual condition for one identity field.
func equalCond(f *FieldDef) (string, error) {
	x, o := "x."+f.Name, "o."+f.Name
	switch f.Type {
	case "String", "Bool", "Int", "Int64", "ColID", "JoinType", "AggMode", "SubqueryKind":
		return fmt.Sprintf("%s == %s", x, o), nil
	case "Scalar":
		return fmt.Sprintf("scalarEqual(%s, %s)", x, o), nil
	case "ScalarList":
		return fmt.Sprintf("scalarsEqual(%s, %s)", x, o), nil
	case "Relation", "Index":
		return fmt.Sprintf("%s.Mdid == %s.Mdid", x, o), nil
	case "ColRefs":
		return fmt.Sprintf("colRefsEqual(%s, %s)", x, o), nil
	case "ColIDs":
		return fmt.Sprintf("colIDsEqual(%s, %s)", x, o), nil
	case "ColIDLists":
		return fmt.Sprintf("colIDListsEqual(%s, %s)", x, o), nil
	case "OrderSpec":
		return fmt.Sprintf("%s.Equal(%s)", x, o), nil
	case "ProjElems":
		return fmt.Sprintf("projElemsEqual(%s, %s)", x, o), nil
	case "AggElems":
		return fmt.Sprintf("aggElemsEqual(%s, %s)", x, o), nil
	case "WinElems":
		return fmt.Sprintf("winElemsEqual(%s, %s)", x, o), nil
	}
	return "", fmt.Errorf("no equality strategy for type %s", f.Type)
}
