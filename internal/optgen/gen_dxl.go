package optgen

import "fmt"

// genDXL emits internal/dxl/physparams.gen.go: the serializePhysParams leg
// for every physical and enforcer operator, rendering exactly the identity
// fields (the ones in ParamHash/ParamEqual) so that param-equal plans render
// identically — PlanFingerprint is the plan-equality oracle for AMPERe
// replay. Element/attribute names come from the dxl= option in defs/.
func genDXL(cat *Catalog) ([]byte, error) {
	var g gen
	g.buf.WriteString(header)
	g.p("package dxl")
	g.p("")
	g.p("import %q", "orca/internal/ops")
	g.p("")
	g.p("// serializePhysParams renders each operator's identity parameters as")
	g.p("// structured attributes and children, one case per physical and")
	g.p("// enforcer operator, mirroring ParamHash: noident fields (derived or")
	g.p("// display-only state) are excluded.")
	g.p("func serializePhysParams(n *Node, op ops.Operator) {")
	g.p("\tswitch x := op.(type) {")
	var bare []string
	for _, o := range opsOfKind(cat, KindPhysical, KindEnforcer) {
		if len(o.IdentityFields()) == 0 {
			bare = append(bare, "*ops."+o.Name)
			continue
		}
		g.p("\tcase *ops.%s:", o.Name)
		for _, f := range o.IdentityFields() {
			lines, err := dxlStmts(f)
			if err != nil {
				return nil, fmt.Errorf("%s.%s: %v", o.Name, f.Name, err)
			}
			for _, l := range lines {
				g.p("\t\t%s", l)
			}
		}
	}
	if len(bare) > 0 {
		g.p("\tcase %s:", joinTypes(bare))
		g.p("\t\t// No parameters beyond the delivered properties already on")
		g.p("\t\t// the node.")
	}
	g.p("\tdefault:")
	g.p("\t\t// Logical and scalar operators never appear in a finished")
	g.p("\t\t// physical plan.")
	g.p("\t}")
	g.p("}")
	return g.gofmt()
}

func joinTypes(ts []string) string {
	out := ""
	for i, t := range ts {
		if i > 0 {
			out += ", "
		}
		out += t
	}
	return out
}

// dxlStmts emits the serialization statements for one identity field.
func dxlStmts(f *FieldDef) ([]string, error) {
	attr := dxlAttr(f)
	x := "x." + f.Name
	switch f.Type {
	case "String":
		return []string{fmt.Sprintf("n.Set(%q, %s)", attr, x)}, nil
	case "Bool":
		return []string{fmt.Sprintf("if %s {\n\t\t\tn.Set(%q, \"true\")\n\t\t}", x, attr)}, nil
	case "Int", "Int64", "ColID":
		return []string{fmt.Sprintf("n.Setf(%q, \"%%d\", %s)", attr, x)}, nil
	case "JoinType", "AggMode", "SubqueryKind":
		return []string{fmt.Sprintf("n.Set(%q, %s.String())", attr, x)}, nil
	case "Scalar":
		return []string{fmt.Sprintf("if %s != nil {\n\t\t\tn.Add(El(%q).Add(SerializeScalar(%s)))\n\t\t}", x, attr, x)}, nil
	case "Relation":
		return []string{fmt.Sprintf("n.Setf(%q, \"%%d\", %s.Mdid.OID)", attr, x)}, nil
	case "Index":
		return []string{fmt.Sprintf("n.Setf(%q, \"%%d\", %s.Mdid.OID).Set(%q, %s.Name)", attr, x, f.Name, x)}, nil
	case "ColRefs":
		return []string{fmt.Sprintf("n.Add(serializeColRefs(%q, %s))", attr, x)}, nil
	case "ColIDs":
		return []string{fmt.Sprintf("n.Set(%q, colIDList(%s))", attr, x)}, nil
	case "ColIDLists":
		return []string{fmt.Sprintf("for _, cols := range %s {\n\t\t\tn.Add(El(%q).Set(\"Cols\", colIDList(cols)))\n\t\t}", x, attr)}, nil
	case "IntList":
		return []string{fmt.Sprintf("if len(%s) > 0 {\n\t\t\tn.Set(%q, intList(%s))\n\t\t}", x, attr, x)}, nil
	case "OrderSpec":
		return []string{fmt.Sprintf("n.Add(serializeOrder(%q, %s))", attr, x)}, nil
	case "ProjElems":
		return []string{fmt.Sprintf("for _, e := range %s {\n\t\t\tn.Add(serializeProjElem(e))\n\t\t}", x)}, nil
	case "AggElems":
		return []string{fmt.Sprintf("for _, a := range %s {\n\t\t\tn.Add(serializeAggElem(a))\n\t\t}", x)}, nil
	case "WinElems":
		return []string{fmt.Sprintf("for _, w := range %s {\n\t\t\tn.Add(serializeWinElem(w))\n\t\t}", x)}, nil
	}
	return nil, fmt.Errorf("no DXL strategy for type %s", f.Type)
}
