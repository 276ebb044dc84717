package dxl

import (
	"fmt"
	"strconv"

	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/props"
)

// SerializeQuery renders a bound query as a dxl:Query message (cf. paper
// Listing 1): output columns, sorting columns, required result distribution
// and the logical operator tree.
func SerializeQuery(q *core.Query) *Node {
	msg := El("Query")
	outs := El("OutputColumns")
	for i, c := range q.OutCols {
		name := ""
		if i < len(q.OutNames) {
			name = q.OutNames[i]
		}
		outs.Add(El("Ident").Set("ColId", strconv.Itoa(int(c))).Set("Name", name))
	}
	msg.Add(outs)
	sorts := El("SortingColumnList")
	for _, it := range q.Order.Items {
		sorts.Add(El("SortingColumn").Set("ColId", strconv.Itoa(int(it.Col))).Set("Desc", strconv.FormatBool(it.Desc)))
	}
	msg.Add(sorts)
	msg.Add(El("Distribution").Set("Type", "Singleton"))
	msg.Add(serializeTree(q.Tree))
	return El("DXLMessage").Add(msg)
}

func serializeColRefs(name string, cols []*md.ColRef) *Node {
	n := El(name)
	for _, c := range cols {
		cn := El("Ident").
			Set("ColId", strconv.Itoa(int(c.ID))).
			Set("Name", c.Name).
			Set("Type", c.Type.String())
		if c.RelMdid.IsValid() {
			cn.Set("RelMdid", c.RelMdid.String()).Set("Ordinal", strconv.Itoa(c.Ordinal))
		}
		n.Add(cn)
	}
	return n
}

func serializeOrder(name string, o props.OrderSpec) *Node {
	n := El(name)
	for _, it := range o.Items {
		n.Add(El("SortingColumn").Set("ColId", strconv.Itoa(int(it.Col))).Set("Desc", strconv.FormatBool(it.Desc)))
	}
	return n
}

// serializeTree renders a logical operator tree.
func serializeTree(e *ops.Expr) *Node {
	var n *Node
	switch op := e.Op.(type) {
	case *ops.Get:
		n = El("LogicalGet").Set("Alias", op.Alias)
		n.Add(El("TableDescriptor").
			Set("Mdid", op.Rel.Mdid.String()).
			Set("Name", op.Rel.Name).
			Add(serializeColRefs("Columns", op.Cols)))
	case *ops.Select:
		n = El("LogicalSelect").Add(El("Predicate").Add(SerializeScalar(op.Pred)))
	case *ops.Project:
		n = El("LogicalProject")
		for _, el := range op.Elems {
			n.Add(El("ProjElem").
				Set("ColId", strconv.Itoa(int(el.Col.ID))).
				Set("Name", el.Col.Name).
				Set("Type", el.Col.Type.String()).
				Add(SerializeScalar(el.Expr)))
		}
	case *ops.Join:
		n = El("LogicalJoin").Set("JoinType", op.Type.String())
		if op.Pred != nil {
			n.Add(El("Predicate").Add(SerializeScalar(op.Pred)))
		}
	case *ops.NAryJoin:
		n = El("LogicalNAryJoin")
		for _, p := range op.Preds {
			n.Add(El("Predicate").Add(SerializeScalar(p)))
		}
	case *ops.GbAgg:
		n = El("LogicalGbAgg").Set("GroupCols", intList(op.GroupCols))
		for _, a := range op.Aggs {
			n.Add(serializeAggElem(a))
		}
	case *ops.Limit:
		n = El("LogicalLimit").
			Set("Count", strconv.FormatInt(op.Count, 10)).
			Set("Offset", strconv.FormatInt(op.Offset, 10)).
			Set("HasCount", strconv.FormatBool(op.HasCount)).
			Add(serializeOrder("SortingColumnList", op.Order))
	case *ops.UnionAll:
		n = El("LogicalUnionAll").Add(serializeColRefs("OutputColumns", op.OutCols))
		for _, cols := range op.InCols {
			n.Add(El("InputColumns").Set("Cols", intList(cols)))
		}
	case *ops.CTEAnchor:
		n = El("LogicalCTEAnchor").Set("CTEId", strconv.Itoa(op.ID)).
			Add(serializeColRefs("ProducerColumns", op.Cols))
	case *ops.CTEConsumer:
		n = El("LogicalCTEConsumer").Set("CTEId", strconv.Itoa(op.ID)).
			Set("ProducerCols", intList(op.ProducerCols)).
			Add(serializeColRefs("OutputColumns", op.Cols))
	case *ops.Window:
		n = El("LogicalWindow").
			Set("PartitionCols", intList(op.PartitionCols)).
			Add(serializeOrder("SortingColumnList", op.Order))
		for _, w := range op.Wins {
			wn := El("WindowFunc").
				Set("ColId", strconv.Itoa(int(w.Col.ID))).
				Set("Name", w.Fn.Name).
				Set("ColName", w.Col.Name).
				Set("Type", w.Col.Type.String())
			if w.Fn.Arg != nil {
				wn.Add(SerializeScalar(w.Fn.Arg))
			}
			n.Add(wn)
		}
	default:
		n = El("UnknownLogical").Set("Op", e.Op.Name())
	}
	for _, c := range e.Children {
		n.Add(serializeTree(c))
	}
	return n
}

func serializeAggElem(a ops.AggElem) *Node {
	n := El("AggElem").
		Set("ColId", strconv.Itoa(int(a.Col.ID))).
		Set("Name", a.Col.Name).
		Set("Type", a.Col.Type.String()).
		Set("AggName", a.Agg.Name).
		Set("Distinct", strconv.FormatBool(a.Agg.Distinct))
	if a.Agg.Arg != nil {
		n.Add(SerializeScalar(a.Agg.Arg))
	}
	return n
}

// ---------------------------------------------------------------------------
// Parsing

// queryParser reconstructs a bound query from a DXL document; the accessor
// resolves table descriptors against the session's metadata provider and the
// column factory is repopulated with the document's column ids.
type queryParser struct {
	acc *md.Accessor
	f   *md.ColumnFactory
}

// ParseQuery interprets a dxl:DXLMessage (or bare dxl:Query) into a bound
// core.Query.
func ParseQuery(root *Node, acc *md.Accessor, f *md.ColumnFactory) (*core.Query, error) {
	qn := root
	if root.Name == "DXLMessage" {
		qn = root.Child("Query")
	}
	if qn == nil || qn.Name != "Query" {
		return nil, fmt.Errorf("dxl: document has no Query element")
	}
	qp := &queryParser{acc: acc, f: f}
	q := &core.Query{Factory: f, Accessor: acc}
	var treeNode *Node
	for _, c := range qn.Children {
		switch c.Name {
		case "OutputColumns":
			for _, id := range c.ChildrenNamed("Ident") {
				v, err := strconv.Atoi(id.Attr("ColId"))
				if err != nil {
					return nil, fmt.Errorf("dxl: bad output ColId: %v", err)
				}
				q.OutCols = append(q.OutCols, base.ColID(v))
				q.OutNames = append(q.OutNames, id.Attr("Name"))
			}
		case "SortingColumnList":
			ord, err := parseOrderNode(c)
			if err != nil {
				return nil, err
			}
			q.Order = ord
		case "Distribution":
			// Result distribution is always Singleton in this reproduction.
		default:
			treeNode = c
		}
	}
	if treeNode == nil {
		return nil, fmt.Errorf("dxl: query has no logical tree")
	}
	tree, err := qp.parseTree(treeNode)
	if err != nil {
		return nil, err
	}
	q.Tree = tree
	return q, nil
}

func parseOrderNode(n *Node) (props.OrderSpec, error) {
	var out props.OrderSpec
	for _, sn := range n.ChildrenNamed("SortingColumn") {
		v, err := strconv.Atoi(sn.Attr("ColId"))
		if err != nil {
			return out, fmt.Errorf("dxl: bad sorting ColId: %v", err)
		}
		out.Items = append(out.Items, props.OrderItem{Col: base.ColID(v), Desc: sn.Attr("Desc") == "true"})
	}
	return out, nil
}

// parseColRefs reads an Ident list into registered column references.
func (qp *queryParser) parseColRefs(n *Node) ([]*md.ColRef, error) {
	var out []*md.ColRef
	for _, c := range n.ChildrenNamed("Ident") {
		v, err := strconv.Atoi(c.Attr("ColId"))
		if err != nil {
			return nil, fmt.Errorf("dxl: bad ColId: %v", err)
		}
		ref := &md.ColRef{
			ID:      base.ColID(v),
			Name:    c.Attr("Name"),
			Type:    parseTypeID(c.Attr("Type")),
			Ordinal: -1,
		}
		if rm := c.Attr("RelMdid"); rm != "" {
			id, err := md.ParseMDId(rm)
			if err != nil {
				return nil, err
			}
			ref.RelMdid = id
			ord, _ := strconv.Atoi(c.Attr("Ordinal"))
			ref.Ordinal = ord
		} else {
			ref.Computed = true
		}
		qp.f.Register(ref)
		out = append(out, ref)
	}
	return out, nil
}
