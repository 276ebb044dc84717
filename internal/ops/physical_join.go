package ops

import (
	"fmt"

	"orca/internal/base"
	"orca/internal/props"
)

// The HashJoin/NLJoin structs and their Arity/ParamHash/ParamEqual methods
// are generated from defs/ops_physical.opt into ops.gen.go; Name stays
// hand-written (CustomName: the display name carries the join semantics).

// Name implements Operator.
func (j *HashJoin) Name() string { return "Inner" + suffixFor(j.Type) + "HashJoin" }

func suffixFor(t JoinType) string {
	switch t {
	case InnerJoin:
		return ""
	case LeftJoin:
		return "Left"
	case SemiJoin:
		return "Semi"
	case AntiJoin:
		return "Anti"
	default:
		return "?"
	}
}

// AppendChildReqs implements Physical. Alternatives, in the paper's spirit
// (Figure 7 and footnote 2: "there can be many other alternatives"):
//
//  1. co-locate: redistribute both sides on the join keys,
//  2. broadcast the inner side, keep the outer side in place,
//  3. broadcast the outer side (inner joins only — broadcasting the
//     row-preserving side of an outer/semi/anti join would duplicate it),
//  4. gather both sides to a single host.
//
// The request is ignored, which requestInvariant declares.
func (j *HashJoin) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	if len(j.LeftKeys) > 0 {
		dst = append(dst,
			props.Required{Dist: props.HashedDupSafe(j.LeftKeys...)},
			props.Required{Dist: props.HashedDupSafe(j.RightKeys...)})
	}
	dst = append(dst, props.Required{Dist: props.AnyDist}, props.Required{Dist: props.ReplicatedDist})
	if j.Type == InnerJoin {
		dst = append(dst, props.Required{Dist: props.ReplicatedDist}, props.Required{Dist: props.AnyDist})
	}
	return append(dst, props.Required{Dist: props.SingletonDist}, props.Required{Dist: props.SingletonDist})
}

func (*HashJoin) requestInvariant() {}

// Derive implements Physical.
func (j *HashJoin) Derive(children []props.Derived) props.Derived {
	return props.Derived{Dist: joinDist(children[0].Dist, children[1].Dist)}
}

// joinDist combines child distributions into the join output distribution:
// a replicated side defers to the other side; co-located sides keep the
// outer distribution; a mismatch (should not survive property checking)
// degrades to Random.
func joinDist(outer, inner props.Distribution) props.Distribution {
	switch {
	case outer.Kind == props.DistReplicated && inner.Kind == props.DistReplicated:
		return props.ReplicatedDist
	case outer.Kind == props.DistReplicated:
		return inner
	case inner.Kind == props.DistReplicated:
		return outer
	case outer.Kind == props.DistSingleton && inner.Kind == props.DistSingleton:
		return props.SingletonDist
	case outer.Kind == props.DistHashed:
		return outer
	default:
		return props.RandomDist
	}
}

// Describe renders the join keys.
func (j *HashJoin) Describe() string {
	d := j.Name() + " " + keysString(j.LeftKeys, j.RightKeys)
	if j.Residual != nil {
		d += " residual=" + j.Residual.String()
	}
	return d
}

func keysString(l, r []base.ColID) string {
	s := "["
	for i := range l {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("c%d=c%d", l[i], r[i])
	}
	return s + "]"
}

// Name implements Operator.
func (j *NLJoin) Name() string { return "Inner" + suffixFor(j.Type) + "NLJoin" }

// AppendChildReqs implements Physical. The inner side is requested
// rewindable — it is re-scanned per outer tuple — and either replicated or
// co-resident on a single host. NLJoin preserves the outer child's order,
// which is how an order-preserving NL join avoids a Sort (paper §4.1).
func (j *NLJoin) AppendChildReqs(req props.Required, dst []props.Required) []props.Required {
	return append(dst,
		props.Required{Dist: props.AnyDist, Order: req.Order},
		props.Required{Dist: props.ReplicatedDist, Rewindable: true},
		props.Required{Dist: props.SingletonDist, Order: req.Order},
		props.Required{Dist: props.SingletonDist, Rewindable: true})
}

// RequestOnlyKind implements RequestOnly: the alternatives read only the
// request's order, never the join's type or predicate.
func (*NLJoin) RequestOnlyKind() int { return ReqOnlyNLJoin }

// Derive implements Physical: distribution combines like a hash join; the
// outer child's order is preserved.
func (j *NLJoin) Derive(children []props.Derived) props.Derived {
	return props.Derived{
		Dist:  joinDist(children[0].Dist, children[1].Dist),
		Order: children[0].Order,
	}
}

// Describe renders the predicate.
func (j *NLJoin) Describe() string {
	if j.Pred == nil {
		return j.Name()
	}
	return j.Name() + " " + j.Pred.String()
}
