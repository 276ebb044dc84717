package ops

import (
	"fmt"
	"strings"

	"orca/internal/props"
)

// The operator structs and their Name/Arity/ParamHash/ParamEqual methods,
// the xform rule skeletons, the DXL physical-parameter serializer, the
// cost/stats/engine dispatch switches and docs/opmatrix.md are generated
// from defs/*.opt. check.sh regenerates and fails on drift.
//
//go:generate go run orca/cmd/optgen -defs ../../defs -root ../..

// Operator is a relational operator — the content of a Memo group expression.
// Operators are immutable values; their parameters (scalar conditions,
// grouping columns, table descriptors) participate in the fingerprint used
// for the Memo's duplicate detection.
type Operator interface {
	// Name is the operator's display name ("InnerJoin", "HashJoin", ...).
	Name() string
	// Arity is the number of relational children the operator takes, or -1
	// for variadic operators (UnionAll, NAryJoin).
	Arity() int
	// ParamHash hashes the operator's parameters (not its children).
	ParamHash() uint64
	// ParamEqual compares parameters with another operator of any type.
	ParamEqual(Operator) bool
}

// Logical marks logical operators.
type Logical interface {
	Operator
	logical()
}

// Physical marks physical operators and carries the property-framework hooks
// of paper §4.1: deriving delivered properties bottom-up and computing the
// requests pushed to children for a given incoming request. One incoming
// request may map to several alternatives (e.g. co-locate vs broadcast for a
// hash join); each alternative is one request per child.
type Physical interface {
	Operator
	// AppendChildReqs appends to dst the children's property-request
	// alternatives under the incoming request req, one request per child,
	// alternative after alternative; a leaf's one alternative appends none.
	AppendChildReqs(req props.Required, dst []props.Required) []props.Required
	// Derive computes delivered properties from the children's delivered
	// properties (child order matches the expression's children).
	Derive(children []props.Derived) props.Derived
	physical()
}

// RequestInvariant marks physical operators whose AppendChildReqs ignores
// the incoming request: the alternatives are a function of the operator
// alone, so search interns them once per group expression
// (memo.GroupExpr.ChildReqs) instead of once per costed request.
type RequestInvariant interface {
	Physical
	requestInvariant()
}

// RequestOnly marks physical operators whose AppendChildReqs reads the
// incoming request and none of the operator's own fields: two instances of
// one kind ask the same alternatives under every request, so search interns
// them once per (kind, request) (memo.GroupExpr.ChildReqs) instead of once
// per costed expression.
type RequestOnly interface {
	Physical
	// RequestOnlyKind numbers the operator's kind among the request-only
	// ones, from 0 to NumRequestOnlyKinds-1.
	RequestOnlyKind() int
}

// The request-only operator kinds.
const (
	ReqOnlyNLJoin = iota
	ReqOnlyFilter
	ReqOnlySort
	ReqOnlySpool
	ReqOnlySequence
	NumRequestOnlyKinds
)

// Enforcer marks the enforcer operators (Sort, Gather, GatherMerge,
// Redistribute, Broadcast, Spool) that the optimizer plugs into groups to
// deliver required properties; plan explains render them distinctly, as the
// black boxes of paper Figure 6 do.
type Enforcer interface {
	Physical
	enforcer()
}

// Expr is an operator tree: the binder's output, the normalizer's working
// representation, and the shape of final plans extracted from the Memo.
// (Inside the Memo, children are groups instead — see internal/memo.)
type Expr struct {
	Op       Operator
	Children []*Expr

	// Phys carries the delivered physical properties on extracted plan
	// nodes; it is nil on logical trees.
	Phys *props.Derived
	// Cost is the estimated cost of the subtree on extracted plan nodes.
	Cost float64
	// Rows is the estimated output cardinality on extracted plan nodes.
	Rows float64
}

// NewExpr builds an expression node.
func NewExpr(op Operator, children ...*Expr) *Expr {
	return &Expr{Op: op, Children: children}
}

// Child returns the i-th child.
func (e *Expr) Child(i int) *Expr { return e.Children[i] }

// String renders a single-line form for debugging.
func (e *Expr) String() string {
	if len(e.Children) == 0 {
		return e.Op.Name()
	}
	parts := make([]string, len(e.Children))
	for i, c := range e.Children {
		parts[i] = c.String()
	}
	return e.Op.Name() + "(" + strings.Join(parts, ", ") + ")"
}

// Format renders a multi-line indented plan tree, with per-node cost, rows
// and delivered properties when present (physical plans).
func (e *Expr) Format(naming func(Operator) string) string {
	var b strings.Builder
	e.format(&b, 0, naming)
	return b.String()
}

func (e *Expr) format(b *strings.Builder, depth int, naming func(Operator) string) {
	b.WriteString(strings.Repeat("  ", depth))
	if naming != nil {
		b.WriteString(naming(e.Op))
	} else {
		b.WriteString(describeOp(e.Op))
	}
	if e.Phys != nil {
		fmt.Fprintf(b, "  [rows=%.0f cost=%.0f %s]", e.Rows, e.Cost, e.Phys)
	}
	b.WriteByte('\n')
	for _, c := range e.Children {
		c.format(b, depth+1, naming)
	}
}

// describeOp renders an operator with its salient parameters.
func describeOp(op Operator) string {
	if d, ok := op.(interface{ Describe() string }); ok {
		return d.Describe()
	}
	return op.Name()
}

// Describe renders the root operator with parameters.
func Describe(op Operator) string { return describeOp(op) }
