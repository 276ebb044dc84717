package ops

import (
	"fmt"

	"orca/internal/props"
)

// The enforcer operators of paper §4.1 (the black boxes of Figure 6): Sort
// enforces order; Gather, GatherMerge, Redistribute and Broadcast enforce
// distribution by moving data between segments; Spool enforces
// rewindability by materializing its input. The optimizer plugs enforcers
// into Memo groups; each enforcer strips the property it delivers from the
// request passed to its child. Structs and Name/Arity/ParamHash/ParamEqual
// are generated from defs/ops_enforcers.opt into ops.gen.go.

// AppendChildReqs implements Physical: the distribution requirement passes
// through; the order requirement is satisfied here.
func (s *Sort) AppendChildReqs(req props.Required, dst []props.Required) []props.Required {
	return append(dst, props.Required{Dist: req.Dist})
}

// RequestOnlyKind implements RequestOnly: the child request reads only the
// request's distribution, never the sort order.
func (*Sort) RequestOnlyKind() int { return ReqOnlySort }

// Derive implements Physical: sorted output over the child's distribution;
// the sorted buffer is rewindable.
func (s *Sort) Derive(children []props.Derived) props.Derived {
	return props.Derived{Dist: children[0].Dist, Order: s.Order, Rewindable: true}
}

// Describe renders the sort order.
func (s *Sort) Describe() string { return "Sort" + s.Order.String() }

// AppendChildReqs implements Physical.
func (*Gather) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	return append(dst, anyReq())
}

func (*Gather) requestInvariant() {}

// Derive implements Physical: all tuples move to the master; order is
// destroyed (tuples from different segments interleave arbitrarily).
func (*Gather) Derive([]props.Derived) props.Derived {
	return props.Derived{Dist: props.SingletonDist}
}

// AppendChildReqs implements Physical: the child must deliver the order.
func (g *GatherMerge) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	return append(dst, props.Required{Dist: props.AnyDist, Order: g.Order})
}

func (*GatherMerge) requestInvariant() {}

// Derive implements Physical: sorted streams from all segments move to the
// master, merge-preserving the order (paper §4.1).
func (g *GatherMerge) Derive([]props.Derived) props.Derived {
	return props.Derived{Dist: props.SingletonDist, Order: g.Order}
}

// Describe renders the preserved order.
func (g *GatherMerge) Describe() string { return "GatherMerge" + g.Order.String() }

// AppendChildReqs implements Physical. An instance on segment S sends tuples
// from S and receives those hashed to S (paper §4.1 "Query Execution").
func (*Redistribute) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	return append(dst, anyReq())
}

func (*Redistribute) requestInvariant() {}

// Derive implements Physical.
func (r *Redistribute) Derive([]props.Derived) props.Derived {
	return props.Derived{Dist: props.Hashed(r.Cols...)}
}

// Describe renders the hash columns.
func (r *Redistribute) Describe() string { return fmt.Sprintf("Redistribute%v", r.Cols) }

// AppendChildReqs implements Physical.
func (*Broadcast) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	return append(dst, anyReq())
}

func (*Broadcast) requestInvariant() {}

// Derive implements Physical: the input is replicated to every segment.
func (*Broadcast) Derive([]props.Derived) props.Derived {
	return props.Derived{Dist: props.ReplicatedDist}
}

// AppendChildReqs implements Physical: dist and order pass through;
// rewindability is delivered here (for nested-loop-join inner sides).
func (*Spool) AppendChildReqs(req props.Required, dst []props.Required) []props.Required {
	return append(dst, passThrough(req))
}

// RequestOnlyKind implements RequestOnly.
func (*Spool) RequestOnlyKind() int { return ReqOnlySpool }

// Derive implements Physical.
func (*Spool) Derive(children []props.Derived) props.Derived {
	return props.Derived{Dist: children[0].Dist, Order: children[0].Order, Rewindable: true}
}
