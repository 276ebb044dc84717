package optgen

// genXform emits internal/xform/rules.gen.go: the dense compile-time rule ID
// const block, the name<->ID tables (together the closed set of rule names
// xform.RuleIDFor resolves and core.Config validates against), one rule
// struct per declaration whose Matches does the type assertion (plus the
// hand-written match predicate when the declaration carries `check`) and
// whose Apply delegates to the hand-written apply function, and the
// DefaultRules set in declaration order.
func genXform(cat *Catalog) ([]byte, error) {
	var g gen
	g.buf.WriteString(header)
	g.p("package xform")
	g.p("")
	g.p("import (")
	g.p("\t%q", "orca/internal/memo")
	g.p("")
	g.p("\t%q", "orca/internal/ops")
	g.p(")")
	g.p("")

	// Dense IDs in declaration order. These index the Memo's per-expression
	// applied-rule bitsets and form rule-set epoch signatures.
	g.p("// Generated dense rule IDs, in defs/ declaration order. The set is")
	g.p("// closed: no rule is registered at run time.")
	g.p("const (")
	for i, r := range cat.Rules {
		if i == 0 {
			g.p("\tRuleID%s = iota", r.Name)
		} else {
			g.p("\tRuleID%s", r.Name)
		}
	}
	g.p("")
	g.p("\t// NumGeneratedRuleIDs is the number of compile-time rule IDs.")
	g.p("\tNumGeneratedRuleIDs")
	g.p(")")
	g.p("")

	g.p("// generatedRuleNames maps generated IDs back to rule names.")
	g.p("var generatedRuleNames = [NumGeneratedRuleIDs]string{")
	for _, r := range cat.Rules {
		g.p("\tRuleID%s: %q,", r.Name, r.Name)
	}
	g.p("}")
	g.p("")

	g.p("// generatedRuleIDs resolves generated rule names to their dense IDs.")
	g.p("// The map is never mutated after package init, so lookups are safe")
	g.p("// without locking.")
	g.p("var generatedRuleIDs = map[string]int{")
	for _, r := range cat.Rules {
		g.p("\t%q: RuleID%s,", r.Name, r.Name)
	}
	g.p("}")
	g.p("")

	for _, r := range cat.Rules {
		genRuleDef(&g, cat, r)
	}

	g.p("// DefaultRules returns the generated rule set in defs/ declaration")
	g.p("// order: exploration rules first, then implementation rules.")
	g.p("func DefaultRules() []Rule {")
	g.p("\treturn []Rule{")
	for _, r := range cat.Rules {
		if r.Kind == KindExploration {
			g.p("\t\t&%s{},", r.Name)
		}
	}
	for _, r := range cat.Rules {
		if r.Kind == KindImplementation {
			g.p("\t\t&%s{},", r.Name)
		}
	}
	g.p("\t}")
	g.p("}")
	return g.gofmt()
}

func genRuleDef(g *gen, cat *Catalog, r *RuleDef) {
	if len(r.Doc) > 0 {
		g.doc(r.Doc)
	} else {
		g.p("// %s is a generated %s rule matching %s.", r.Name, r.Kind, r.Match)
	}
	g.p("type %s struct{}", r.Name)
	g.p("")
	g.p("// Name implements Rule.")
	g.p("func (*%s) Name() string { return %q }", r.Name, r.Name)
	g.p("")
	g.p("// Kind implements Rule.")
	kind := "Exploration"
	if r.Kind == KindImplementation {
		kind = "Implementation"
	}
	g.p("func (*%s) Kind() Kind { return %s }", r.Name, kind)
	g.p("")
	g.p("// Matches implements Rule.")
	g.p("func (*%s) Matches(ge *memo.GroupExpr) bool {", r.Name)
	if r.Check {
		g.p("\top, ok := ge.Op.(*ops.%s)", r.Match)
		g.p("\treturn ok && match%s(op, ge)", r.Name)
	} else {
		g.p("\t_, ok := ge.Op.(*ops.%s)", r.Match)
		g.p("\treturn ok")
	}
	g.p("}")
	g.p("")
	g.p("// Apply implements Rule; the transformation body is hand-written.")
	g.p("func (*%s) Apply(ctx *Context, ge *memo.GroupExpr) error {", r.Name)
	g.p("\treturn apply%s(ctx, ge)", r.Name)
	g.p("}")
	g.p("")
}
