package ops

import (
	"fmt"

	"orca/internal/base"
	"orca/internal/props"
)

// The structs and Name/Arity/ParamHash/ParamEqual methods of the operators
// in this file are generated from defs/ops_physical.opt into ops.gen.go;
// this file keeps the hand-written property-framework halves.

// ---------------------------------------------------------------------------
// Limit / UnionAll

// AppendChildReqs implements Physical: the top-N must be computed over the
// complete stream, so the child is gathered to one host. (A streaming
// two-phase limit is a possible extension; the cost model already charges
// motions for the gathered input.)
func (l *PhysicalLimit) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	return append(dst, props.Required{Dist: props.SingletonDist, Order: l.Order})
}

func (*PhysicalLimit) requestInvariant() {}

// Derive implements Physical.
func (l *PhysicalLimit) Derive([]props.Derived) props.Derived {
	return props.Derived{Dist: props.SingletonDist, Order: l.Order}
}

// Describe renders count/offset.
func (l *PhysicalLimit) Describe() string {
	return fmt.Sprintf("Limit %d offset %d order %s", l.Count, l.Offset, l.Order)
}

// OutputCols returns the union's output columns.
func (u *PhysicalUnionAll) OutputCols() base.ColSet {
	var s base.ColSet
	for _, c := range u.OutCols {
		s.Add(c.ID)
	}
	return s
}

// AppendChildReqs implements Physical: either leave children in place or
// gather everything to one host.
func (u *PhysicalUnionAll) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	for range u.InCols {
		dst = append(dst, anyReq())
	}
	for range u.InCols {
		dst = append(dst, props.Required{Dist: props.SingletonDist})
	}
	return dst
}

func (*PhysicalUnionAll) requestInvariant() {}

// Derive implements Physical.
func (u *PhysicalUnionAll) Derive(children []props.Derived) props.Derived {
	allSingleton, allReplicated := true, true
	for _, c := range children {
		if c.Dist.Kind != props.DistSingleton {
			allSingleton = false
		}
		if c.Dist.Kind != props.DistReplicated {
			allReplicated = false
		}
	}
	switch {
	case allSingleton:
		return props.Derived{Dist: props.SingletonDist}
	case allReplicated:
		return props.Derived{Dist: props.ReplicatedDist}
	default:
		return props.Derived{Dist: props.RandomDist}
	}
}

// ---------------------------------------------------------------------------
// CTE physical operators (paper §7.2.2 "Common Expressions")

// AppendChildReqs implements Physical: child 0 is a CTEProducer
// materializing the shared expression, child 1 the consuming body, which
// sees the incoming requirement.
func (*Sequence) AppendChildReqs(req props.Required, dst []props.Required) []props.Required {
	return append(dst, anyReq(), passThrough(req))
}

// RequestOnlyKind implements RequestOnly.
func (*Sequence) RequestOnlyKind() int { return ReqOnlySequence }

// Derive implements Physical.
func (*Sequence) Derive(children []props.Derived) props.Derived {
	last := children[len(children)-1]
	return props.Derived{Dist: last.Dist, Order: last.Order}
}

// AppendChildReqs implements Physical. The child must not be replicated
// (consumers claim a Random distribution; replicated input would make them
// observe duplicated rows).
func (*PhysicalCTEProducer) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	return append(dst, props.Required{Dist: props.RandomDist})
}

func (*PhysicalCTEProducer) requestInvariant() {}

// Derive implements Physical.
func (p *PhysicalCTEProducer) Derive(children []props.Derived) props.Derived {
	return props.Derived{Dist: children[0].Dist}
}

// Describe renders the CTE id.
func (p *PhysicalCTEProducer) Describe() string { return fmt.Sprintf("CTEProducer(%d)", p.ID) }

// OutputCols returns this consumer's output columns.
func (c *PhysicalCTEConsumer) OutputCols() base.ColSet {
	var s base.ColSet
	for _, cr := range c.Cols {
		s.Add(cr.ID)
	}
	return s
}

// AppendChildReqs implements Physical.
func (*PhysicalCTEConsumer) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	return dst
}

func (*PhysicalCTEConsumer) requestInvariant() {}

// Derive implements Physical: the consumer reads the materialized CTE
// output resident on each segment, claiming a Random distribution (no
// placement guarantee); it is rewindable because the data is materialized.
func (*PhysicalCTEConsumer) Derive([]props.Derived) props.Derived {
	return props.Derived{Dist: props.RandomDist, Rewindable: true}
}

// Describe renders the CTE id.
func (c *PhysicalCTEConsumer) Describe() string { return fmt.Sprintf("CTEConsumer(%d)", c.ID) }

// ---------------------------------------------------------------------------
// Window

// fullOrder is partition columns followed by the window order.
func (w *PhysicalWindow) fullOrder() props.OrderSpec {
	items := make([]props.OrderItem, 0, len(w.PartitionCols)+len(w.Order.Items))
	for _, c := range w.PartitionCols {
		items = append(items, props.OrderItem{Col: c})
	}
	items = append(items, w.Order.Items...)
	return props.OrderSpec{Items: items}
}

// AppendChildReqs implements Physical: input partitioned on the PARTITION
// BY columns and sorted by partition then ORDER BY.
func (w *PhysicalWindow) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	ord := w.fullOrder()
	if len(w.PartitionCols) == 0 {
		return append(dst, props.Required{Dist: props.SingletonDist, Order: ord})
	}
	for _, d := range groupDistAlternatives(w.PartitionCols) {
		dst = append(dst, props.Required{Dist: d, Order: ord})
	}
	return dst
}

func (*PhysicalWindow) requestInvariant() {}

// Derive implements Physical.
func (w *PhysicalWindow) Derive(children []props.Derived) props.Derived {
	return props.Derived{Dist: children[0].Dist, Order: w.fullOrder()}
}

// Describe renders partitioning and functions.
func (w *PhysicalWindow) Describe() string {
	parts := make([]string, len(w.Wins))
	for i, e := range w.Wins {
		parts[i] = fmt.Sprintf("c%d=%s", e.Col.ID, e.Fn)
	}
	return fmt.Sprintf("Window part=%v order=%s fns=%v", w.PartitionCols, w.Order, parts)
}

// ---------------------------------------------------------------------------
// SubPlans (legacy Planner baseline only)

// AppendChildReqs implements Physical: the outer side is gathered to one
// host — the subplan needs the full cluster state per row, which is exactly
// why this strategy serializes execution (paper §7.2.2 "Correlated
// Subqueries" explains how Orca avoids this "repeated execution of subquery
// expressions").
func (s *SubPlanFilter) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	return append(dst, props.Required{Dist: props.SingletonDist})
}

func (*SubPlanFilter) requestInvariant() {}

// Derive implements Physical.
func (s *SubPlanFilter) Derive(children []props.Derived) props.Derived {
	return props.Derived{Dist: props.SingletonDist, Order: children[0].Order}
}

// Describe renders the subplan kind.
func (s *SubPlanFilter) Describe() string {
	return fmt.Sprintf("SubPlanFilter kind=%v test=%v", s.Kind, s.Test)
}

// AppendChildReqs implements Physical.
func (s *SubPlanProject) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	return append(dst, props.Required{Dist: props.SingletonDist})
}

func (*SubPlanProject) requestInvariant() {}

// Derive implements Physical.
func (s *SubPlanProject) Derive(children []props.Derived) props.Derived {
	return props.Derived{Dist: props.SingletonDist, Order: children[0].Order}
}

// Describe renders the computed column.
func (s *SubPlanProject) Describe() string {
	return fmt.Sprintf("SubPlanProject c%d=subplan(c%d)", s.OutCol, s.SubCol)
}
