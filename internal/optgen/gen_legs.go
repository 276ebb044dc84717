package optgen

// genLegs emits internal/engine/legs.gen_test.go: TestOperatorLegs builds
// every declared operator and takes it through the legs of its kind that no
// generated dispatch switch already proves at compile time — the DXL query
// round trip of logical and scalar operators, scalar evaluation in the
// engine, and ParamHash/ParamEqual consistency of physical and enforcer
// operators. Field values come from the hand-written fixture
// (internal/engine/legs_test.go): one sample<Type> method per defs field
// type and one sample<Op> method per hand-written scalar, so a new type or
// scalar does not compile until it has a sample.
func genLegs(cat *Catalog) ([]byte, error) {
	var g gen
	g.buf.WriteString(header)
	g.p("package engine")
	g.p("")
	g.p("import (")
	g.p("\t%q", "testing")
	g.p("")
	g.p("\t%q", "orca/internal/ops")
	g.p(")")
	g.p("")
	g.p("// TestOperatorLegs takes every operator declared in defs/*.opt through")
	g.p("// the legs of its kind that a compile does not already prove.")
	g.p("func TestOperatorLegs(t *testing.T) {")
	g.p("\tc := newLegsFixture(t)")
	for _, o := range cat.Ops {
		switch o.Kind {
		case KindScalar:
			g.p("\tc.scalar(c.sample%s(), %t)", o.Name, !o.Normalized)
		case KindLogical:
			g.p("\tc.logical(%d, %s)", o.Arity, opLiteral(o))
		default:
			g.p("\tc.physical(%t, func() ops.Operator { return %s })", o.PtrIdentity, opLiteral(o))
		}
	}
	g.p("}")
	return g.gofmt()
}

// opLiteral renders a generated operator's construction with a sample value
// in every field.
func opLiteral(o *OpDef) string {
	lit := "&ops." + o.Name + "{"
	for i, f := range o.Fields {
		if i > 0 {
			lit += ", "
		}
		lit += f.Name + ": c.sample" + f.Type + "()"
	}
	return lit + "}"
}
