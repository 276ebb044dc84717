package ops

import (
	"fmt"
	"strings"

	"orca/internal/base"
	"orca/internal/props"
)

// The HashAgg/StreamAgg/ScalarAgg structs and their Arity/ParamHash/
// ParamEqual methods are generated from defs/ops_physical.opt into
// ops.gen.go; HashAgg/ScalarAgg keep hand-written Name methods (CustomName:
// the display name carries the aggregation mode).

// AggMode distinguishes the stages of a multi-stage (MPP) aggregate: a
// Single aggregate does all the work at once; a Local aggregate
// pre-aggregates segment-resident data and a Global aggregate combines the
// partial states after a motion — the classic two-stage aggregation plan.
type AggMode uint8

// Aggregation modes.
const (
	AggSingle AggMode = iota
	AggLocal
	AggGlobal
)

// String names the mode.
func (m AggMode) String() string {
	switch m {
	case AggLocal:
		return "Local"
	case AggGlobal:
		return "Global"
	default:
		return "Single"
	}
}

func aggOutputCols(groupCols []base.ColID, aggs []AggElem) base.ColSet {
	s := base.MakeColSet(groupCols...)
	for _, a := range aggs {
		s.Add(a.Col.ID)
	}
	return s
}

func aggUsedCols(groupCols []base.ColID, aggs []AggElem) base.ColSet {
	s := base.MakeColSet(groupCols...)
	for _, a := range aggs {
		s = s.Union(a.Agg.Cols())
	}
	return s
}

// groupDistAlternatives lists the child distribution requests that make a
// grouped aggregate correct: partition on all grouping columns, on any
// single grouping column (rows in one hash bucket of a grouping column
// necessarily agree on that column, so groups never straddle segments), or
// everything on one host.
func groupDistAlternatives(groupCols []base.ColID) []props.Distribution {
	var out []props.Distribution
	out = append(out, props.Hashed(groupCols...))
	if len(groupCols) > 1 {
		for _, c := range groupCols {
			out = append(out, props.Hashed(c))
		}
	}
	out = append(out, props.SingletonDist)
	return out
}

// ---------------------------------------------------------------------------
// HashAgg

// Name implements Operator.
func (a *HashAgg) Name() string { return a.Mode.String() + "HashAgg" }

// OutputCols returns group plus aggregate columns.
func (a *HashAgg) OutputCols() base.ColSet { return aggOutputCols(a.GroupCols, a.Aggs) }

// UsedCols returns referenced input columns.
func (a *HashAgg) UsedCols() base.ColSet { return aggUsedCols(a.GroupCols, a.Aggs) }

// AppendChildReqs implements Physical. In Global mode the aggregate
// functions combine partial states produced by a matching Local aggregate
// below (count→sum of partial counts, sum/min/max→same function).
func (a *HashAgg) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	if a.Mode == AggLocal {
		return append(dst, anyReq())
	}
	for _, d := range groupDistAlternatives(a.GroupCols) {
		dst = append(dst, props.Required{Dist: d})
	}
	return dst
}

func (*HashAgg) requestInvariant() {}

// Derive implements Physical: the child distribution is preserved; hash
// aggregation destroys order.
func (a *HashAgg) Derive(children []props.Derived) props.Derived {
	return props.Derived{Dist: children[0].Dist}
}

// Describe renders mode, grouping and aggregates.
func (a *HashAgg) Describe() string {
	return fmt.Sprintf("%s group=%v aggs=[%s]", a.Name(), a.GroupCols, aggList(a.Aggs))
}

func aggList(aggs []AggElem) string {
	parts := make([]string, len(aggs))
	for i, a := range aggs {
		parts[i] = fmt.Sprintf("c%d=%s", a.Col.ID, a.Agg)
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------------------
// StreamAgg

// OutputCols returns group plus aggregate columns.
func (a *StreamAgg) OutputCols() base.ColSet { return aggOutputCols(a.GroupCols, a.Aggs) }

// UsedCols returns referenced input columns.
func (a *StreamAgg) UsedCols() base.ColSet { return aggUsedCols(a.GroupCols, a.Aggs) }

// GroupOrder is the input order the operator requires.
func (a *StreamAgg) GroupOrder() props.OrderSpec { return props.MakeOrder(a.GroupCols...) }

// AppendChildReqs implements Physical.
func (a *StreamAgg) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	ord := a.GroupOrder()
	for _, d := range groupDistAlternatives(a.GroupCols) {
		dst = append(dst, props.Required{Dist: d, Order: ord})
	}
	return dst
}

func (*StreamAgg) requestInvariant() {}

// Derive implements Physical: distribution and the group order pass through.
func (a *StreamAgg) Derive(children []props.Derived) props.Derived {
	return props.Derived{Dist: children[0].Dist, Order: a.GroupOrder()}
}

// Describe renders grouping and aggregates.
func (a *StreamAgg) Describe() string {
	return fmt.Sprintf("StreamAgg group=%v aggs=[%s]", a.GroupCols, aggList(a.Aggs))
}

// ---------------------------------------------------------------------------
// ScalarAgg

// Name implements Operator.
func (a *ScalarAgg) Name() string { return a.Mode.String() + "ScalarAgg" }

// OutputCols returns the aggregate columns.
func (a *ScalarAgg) OutputCols() base.ColSet { return aggOutputCols(nil, a.Aggs) }

// UsedCols returns referenced input columns.
func (a *ScalarAgg) UsedCols() base.ColSet { return aggUsedCols(nil, a.Aggs) }

// AppendChildReqs implements Physical.
func (a *ScalarAgg) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	if a.Mode == AggLocal {
		return append(dst, anyReq())
	}
	// Single and Global both consume everything on one host.
	return append(dst, props.Required{Dist: props.SingletonDist})
}

func (*ScalarAgg) requestInvariant() {}

// Derive implements Physical: a Local scalar aggregate emits one row per
// segment (no placement guarantee); Single/Global emit one row on one host.
func (a *ScalarAgg) Derive(children []props.Derived) props.Derived {
	if a.Mode == AggLocal {
		d := children[0].Dist
		if d.Kind == props.DistSingleton || d.Kind == props.DistReplicated {
			return props.Derived{Dist: props.SingletonDist}
		}
		return props.Derived{Dist: props.RandomDist}
	}
	return props.Derived{Dist: props.SingletonDist}
}

// Describe renders the aggregates.
func (a *ScalarAgg) Describe() string {
	return fmt.Sprintf("%s aggs=[%s]", a.Name(), aggList(a.Aggs))
}
