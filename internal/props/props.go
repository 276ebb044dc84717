package props

import (
	"fmt"

	"orca/internal/base"
)

// Logical holds the logical properties of a Memo group: facts true of every
// expression in the group regardless of physical implementation.
type Logical struct {
	// OutputCols are the columns produced by the group.
	OutputCols base.ColSet
	// OuterRefs are columns referenced but not produced — correlation
	// references to an enclosing query block. Non-empty OuterRefs mark a
	// correlated subtree (used by decorrelation and by SubPlan execution).
	OuterRefs base.ColSet
	// Relations is the set of base-relation instances (by first column id of
	// each table instance) appearing under the group; used for join-graph
	// bookkeeping.
	Relations base.ColSet
	// MaxCard is an upper bound on output cardinality when statically known
	// (e.g. a scalar aggregate produces exactly one row); -1 means unknown.
	MaxCard int64
}

// NewLogical returns logical props with unknown max cardinality.
func NewLogical() *Logical { return &Logical{MaxCard: -1} }

// Required is one optimization request: the physical properties a parent
// demands from a plan rooted in a group (paper §4.1 — e.g. req #1
// "{Singleton, <T1.a>}"). Rewindable additionally asks that the plan's
// output can be cheaply re-scanned (demanded from nested-loop-join inner
// sides; satisfied natively by scans and spools, enforced by a Spool
// otherwise).
type Required struct {
	Dist       Distribution
	Order      OrderSpec
	Rewindable bool
}

// AnyReq requires nothing.
var AnyReq = Required{Dist: AnyDist}

// Hash returns a stable hash of the request, the key of the Memo's group
// hash tables.
func (r Required) Hash() uint64 {
	h := r.Dist.Hash()*31 + r.Order.Hash()
	if r.Rewindable {
		h = h*31 + 1
	}
	return h
}

// Equal reports whether two requests are the same.
func (r Required) Equal(o Required) bool {
	return r.Dist.Equal(o.Dist) && r.Order.Equal(o.Order) && r.Rewindable == o.Rewindable
}

// String renders "{Singleton, <1>}" in the paper's notation.
func (r Required) String() string {
	s := fmt.Sprintf("{%s, %s", r.Dist, r.Order)
	if r.Rewindable {
		s += ", rewind"
	}
	return s + "}"
}

// Derived holds the physical properties a concrete plan delivers.
type Derived struct {
	Dist       Distribution
	Order      OrderSpec
	Rewindable bool
}

// Hash returns a stable hash of the delivered properties, the key of the
// Memo's delivered-property table.
func (d Derived) Hash() uint64 { return Required(d).Hash() }

// Equal reports whether two deliveries are the same.
func (d Derived) Equal(o Derived) bool { return Required(d).Equal(Required(o)) }

// Satisfies reports whether the delivered properties meet the request.
func (d Derived) Satisfies(r Required) bool {
	if !d.Dist.Satisfies(r.Dist) {
		return false
	}
	if !d.Order.Satisfies(r.Order) {
		return false
	}
	if r.Rewindable && !d.Rewindable {
		return false
	}
	return true
}

// String renders the delivered properties.
func (d Derived) String() string {
	s := fmt.Sprintf("{%s, %s", d.Dist, d.Order)
	if d.Rewindable {
		s += ", rewind"
	}
	return s + "}"
}
