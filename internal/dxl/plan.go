package dxl

import (
	"math"
	"strconv"
	"strings"

	"orca/internal/ops"
)

// SerializePlan renders a physical plan as a dxl:Plan message — the
// optimizer's output format, shipped back to the host system where DXL2Plan
// turns it into an executable plan (paper Figure 2). The encoding is
// canonical (sorted attributes, stable parameter rendering) so two plans are
// equal exactly when their serializations are equal, which is what the
// AMPERe test framework compares. The per-operator physical-parameter
// serializer (serializePhysParams) is generated from defs/*.opt into
// physparams.gen.go, mirroring each operator's identity fields.
func SerializePlan(plan *ops.Expr) *Node {
	msg := El("Plan")
	msg.Add(serializePlanNode(plan))
	return El("DXLMessage").Add(msg)
}

func serializePlanNode(e *ops.Expr) *Node {
	n := &Node{Name: "PhysicalOp", Attrs: make([]Attr, 0, 8)}
	n.Set("Name", e.Op.Name())
	n.Set("Params", paramString(e.Op))
	if e.Phys != nil {
		n.Set("Dist", e.Phys.Dist.String())
		if !e.Phys.Order.IsAny() {
			n.Set("Order", e.Phys.Order.String())
		}
		n.Set("Rows", roundedString(e.Rows))
		n.Set("Cost", roundedString(e.Cost))
	}
	serializePhysParams(n, e.Op)
	for _, c := range e.Children {
		n.Add(serializePlanNode(c))
	}
	switch op := e.Op.(type) {
	case *ops.SubPlanFilter:
		n.Add(El("SubPlan").Add(serializePlanNode(op.Plan)))
	case *ops.SubPlanProject:
		n.Add(El("SubPlan").Add(serializePlanNode(op.Plan)))
	default:
		// Only the SubPlan operators carry an out-of-line inner plan.
	}
	return n
}

// serializeProjElem renders one projection element.
func serializeProjElem(e ops.ProjElem) *Node {
	return El("ProjElem").
		Set("ColId", strconv.Itoa(int(e.Col.ID))).
		Set("Name", e.Col.Name).
		Add(SerializeScalar(e.Expr))
}

// serializeWinElem renders one window-function element.
func serializeWinElem(w ops.WinElem) *Node {
	wn := El("WinElem").
		Set("ColId", strconv.Itoa(int(w.Col.ID))).
		Set("Name", w.Col.Name).
		Set("Fn", w.Fn.Name)
	if w.Fn.Arg != nil {
		wn.Add(SerializeScalar(w.Fn.Arg))
	}
	return wn
}

// paramString renders operator parameters canonically: the parameter hash
// in hex, a colon, and the operator's description.
func paramString(op ops.Operator) string {
	desc := ops.Describe(op)
	var b strings.Builder
	b.Grow(len("ffffffffffffffff:") + len(desc))
	var hex [16]byte
	b.Write(strconv.AppendUint(hex[:0], op.ParamHash(), 16))
	b.WriteByte(':')
	b.WriteString(desc)
	return b.String()
}

// roundedString renders x rounded to an integer, as strconv.FormatFloat(x,
// 'f', 0, 64) does. Non-negative estimates below 2^53 take an integer path
// that skips FormatFloat's arbitrary-precision rounding; both round half to
// even.
func roundedString(x float64) string {
	if 0 <= x && x < 1<<53 && !math.Signbit(x) {
		return strconv.FormatInt(int64(math.RoundToEven(x)), 10)
	}
	return strconv.FormatFloat(x, 'f', 0, 64)
}

// PlanFingerprint returns a canonical string for plan-equality comparison.
func PlanFingerprint(plan *ops.Expr) string {
	return SerializePlan(plan).Render()
}
