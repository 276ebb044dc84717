package dxl

import (
	"fmt"
	"strconv"

	"orca/internal/base"
	"orca/internal/ops"
)

// SerializeScalar renders a scalar expression tree.
func SerializeScalar(e ops.ScalarExpr) *Node {
	switch x := e.(type) {
	case *ops.Ident:
		return El("Ident").Set("ColId", strconv.Itoa(int(x.Col))).Set("Type", x.Type.String())
	case *ops.Const:
		return El("Const").Set("Val", datumString(x.Val))
	case *ops.Param:
		// Defensive: rebinding replaces every Param with a Const before a
		// plan leaves the plan cache, but a serialized placeholder must
		// still round-trip for diagnostics.
		return El("Param").Set("Ord", strconv.Itoa(x.Ord))
	case *ops.Cmp:
		return El("Comparison").Set("Operator", x.Op.String()).
			Add(SerializeScalar(x.L), SerializeScalar(x.R))
	case *ops.BoolOp:
		var kind string
		switch x.Kind {
		case ops.BoolAnd:
			kind = "And"
		case ops.BoolOr:
			kind = "Or"
		case ops.BoolNot:
			kind = "Not"
		}
		n := El("BoolExpr").Set("Kind", kind)
		for _, a := range x.Args {
			n.Add(SerializeScalar(a))
		}
		return n
	case *ops.BinOp:
		return El("ArithOp").Set("Operator", x.Op).
			Add(SerializeScalar(x.L), SerializeScalar(x.R))
	case *ops.Func:
		n := El("FuncExpr").Set("Name", x.Name)
		for _, a := range x.Args {
			n.Add(SerializeScalar(a))
		}
		return n
	case *ops.Case:
		n := El("Case")
		for _, w := range x.Whens {
			n.Add(El("When").Add(SerializeScalar(w.When), SerializeScalar(w.Then)))
		}
		if x.Else != nil {
			n.Add(El("Else").Add(SerializeScalar(x.Else)))
		}
		return n
	case *ops.IsNull:
		return El("IsNull").Set("Negated", strconv.FormatBool(x.Negated)).Add(SerializeScalar(x.Arg))
	case *ops.InList:
		n := El("InList").Set("Negated", strconv.FormatBool(x.Negated)).Add(SerializeScalar(x.Arg))
		for _, v := range x.Vals {
			n.Add(SerializeScalar(v))
		}
		return n
	case *ops.Subquery:
		n := El("Subquery").
			Set("Kind", strconv.Itoa(int(x.Kind))).
			Set("OutCol", strconv.Itoa(int(x.OutCol)))
		n.Add(El("SubqueryInput").Add(serializeTree(x.Input)))
		if x.Test != nil {
			n.Add(El("SubqueryTest").Add(SerializeScalar(x.Test)))
		}
		return n
	default:
		return unknownScalar(e)
	}
}

// unknownScalar renders a scalar type SerializeScalar has no case for.
func unknownScalar(e ops.ScalarExpr) *Node {
	return El("UnknownScalar").Set("Go", fmt.Sprintf("%T", e))
}

var cmpByName = map[string]ops.CmpOp{
	"=": ops.CmpEq, "<>": ops.CmpNe, "<": ops.CmpLt,
	"<=": ops.CmpLe, ">": ops.CmpGt, ">=": ops.CmpGe,
}

// parseScalar interprets a scalar element; the parser carries the query
// context for subquery inputs.
func (qp *queryParser) parseScalar(n *Node) (ops.ScalarExpr, error) {
	switch n.Name {
	case "Ident":
		id, err := strconv.Atoi(n.Attr("ColId"))
		if err != nil {
			return nil, fmt.Errorf("dxl: bad ColId: %v", err)
		}
		return ops.NewIdent(base.ColID(id), parseTypeID(n.Attr("Type"))), nil
	case "Const":
		d, err := parseDatum(n.Attr("Val"))
		if err != nil {
			return nil, err
		}
		return ops.NewConst(d), nil
	case "Param":
		ord, err := strconv.Atoi(n.Attr("Ord"))
		if err != nil {
			return nil, fmt.Errorf("dxl: bad Param Ord: %v", err)
		}
		return ops.NewParam(ord), nil
	case "Comparison":
		op, ok := cmpByName[n.Attr("Operator")]
		if !ok {
			return nil, fmt.Errorf("dxl: unknown comparison %q", n.Attr("Operator"))
		}
		l, err := qp.parseScalar(n.Children[0])
		if err != nil {
			return nil, err
		}
		r, err := qp.parseScalar(n.Children[1])
		if err != nil {
			return nil, err
		}
		return ops.NewCmp(op, l, r), nil
	case "BoolExpr":
		var kind ops.BoolOpKind
		switch n.Attr("Kind") {
		case "And":
			kind = ops.BoolAnd
		case "Or":
			kind = ops.BoolOr
		case "Not":
			kind = ops.BoolNot
		default:
			return nil, fmt.Errorf("dxl: unknown bool kind %q", n.Attr("Kind"))
		}
		args := make([]ops.ScalarExpr, len(n.Children))
		for i, c := range n.Children {
			a, err := qp.parseScalar(c)
			if err != nil {
				return nil, err
			}
			args[i] = a
		}
		return &ops.BoolOp{Kind: kind, Args: args}, nil
	case "ArithOp":
		l, err := qp.parseScalar(n.Children[0])
		if err != nil {
			return nil, err
		}
		r, err := qp.parseScalar(n.Children[1])
		if err != nil {
			return nil, err
		}
		return &ops.BinOp{Op: n.Attr("Operator"), L: l, R: r}, nil
	case "FuncExpr":
		args := make([]ops.ScalarExpr, len(n.Children))
		for i, c := range n.Children {
			a, err := qp.parseScalar(c)
			if err != nil {
				return nil, err
			}
			args[i] = a
		}
		return &ops.Func{Name: n.Attr("Name"), Args: args}, nil
	case "Case":
		out := &ops.Case{}
		for _, c := range n.Children {
			switch c.Name {
			case "When":
				w, err := qp.parseScalar(c.Children[0])
				if err != nil {
					return nil, err
				}
				t, err := qp.parseScalar(c.Children[1])
				if err != nil {
					return nil, err
				}
				out.Whens = append(out.Whens, ops.CaseWhen{When: w, Then: t})
			case "Else":
				e, err := qp.parseScalar(c.Children[0])
				if err != nil {
					return nil, err
				}
				out.Else = e
			}
		}
		return out, nil
	case "IsNull":
		arg, err := qp.parseScalar(n.Children[0])
		if err != nil {
			return nil, err
		}
		return &ops.IsNull{Arg: arg, Negated: n.Attr("Negated") == "true"}, nil
	case "InList":
		arg, err := qp.parseScalar(n.Children[0])
		if err != nil {
			return nil, err
		}
		vals := make([]ops.ScalarExpr, 0, len(n.Children)-1)
		for _, c := range n.Children[1:] {
			v, err := qp.parseScalar(c)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		return &ops.InList{Arg: arg, Vals: vals, Negated: n.Attr("Negated") == "true"}, nil
	case "Subquery":
		kind, _ := strconv.Atoi(n.Attr("Kind"))
		outCol, _ := strconv.Atoi(n.Attr("OutCol"))
		sq := &ops.Subquery{Kind: ops.SubqueryKind(kind), OutCol: base.ColID(outCol)}
		if in := n.Child("SubqueryInput"); in != nil && len(in.Children) > 0 {
			t, err := qp.parseTree(in.Children[0])
			if err != nil {
				return nil, err
			}
			sq.Input = t
		}
		if tn := n.Child("SubqueryTest"); tn != nil && len(tn.Children) > 0 {
			t, err := qp.parseScalar(tn.Children[0])
			if err != nil {
				return nil, err
			}
			sq.Test = t
		}
		return sq, nil
	default:
		return nil, fmt.Errorf("dxl: unknown scalar element %q", n.Name)
	}
}
