// Code generated by cmd/optgen from defs/*.opt. DO NOT EDIT.

package ops

import (
	"orca/internal/base"
	"orca/internal/md"
	"orca/internal/props"
)

// Sort delivers the required order by sorting its child.
type Sort struct {
	enforcerBase

	Order props.OrderSpec
}

// Name implements Operator.
func (*Sort) Name() string { return "Sort" }

// Arity implements Operator.
func (*Sort) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *Sort) ParamHash() uint64 {
	h := hashString(fnvOffset, "sort")
	h = hashMix(h, x.Order.Hash())
	return h
}

// ParamEqual implements Operator.
func (x *Sort) ParamEqual(other Operator) bool {
	o, ok := other.(*Sort)
	if !ok {
		return false
	}
	if !(x.Order.Equal(o.Order)) {
		return false
	}
	return true
}

// Gather moves all rows to the singleton (master) segment, in no
// particular order.
type Gather struct {
	enforcerBase
}

// Name implements Operator.
func (*Gather) Name() string { return "Gather" }

// Arity implements Operator.
func (*Gather) Arity() int { return 1 }

// ParamHash implements Operator.
func (*Gather) ParamHash() uint64 {
	return hashString(fnvOffset, "gather")
}

// ParamEqual implements Operator.
func (*Gather) ParamEqual(other Operator) bool {
	_, ok := other.(*Gather)
	return ok
}

// GatherMerge gathers sorted streams, preserving the order.
type GatherMerge struct {
	enforcerBase

	Order props.OrderSpec
}

// Name implements Operator.
func (*GatherMerge) Name() string { return "GatherMerge" }

// Arity implements Operator.
func (*GatherMerge) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *GatherMerge) ParamHash() uint64 {
	h := hashString(fnvOffset, "gathermerge")
	h = hashMix(h, x.Order.Hash())
	return h
}

// ParamEqual implements Operator.
func (x *GatherMerge) ParamEqual(other Operator) bool {
	o, ok := other.(*GatherMerge)
	if !ok {
		return false
	}
	if !(x.Order.Equal(o.Order)) {
		return false
	}
	return true
}

// Redistribute hashes rows across segments on the given columns.
type Redistribute struct {
	enforcerBase

	Cols []base.ColID
}

// Name implements Operator.
func (*Redistribute) Name() string { return "Redistribute" }

// Arity implements Operator.
func (*Redistribute) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *Redistribute) ParamHash() uint64 {
	h := hashString(fnvOffset, "redistribute")
	h = hashColIDs(h, x.Cols)
	return h
}

// ParamEqual implements Operator.
func (x *Redistribute) ParamEqual(other Operator) bool {
	o, ok := other.(*Redistribute)
	if !ok {
		return false
	}
	if !(colIDsEqual(x.Cols, o.Cols)) {
		return false
	}
	return true
}

// Broadcast replicates every row to every segment.
type Broadcast struct {
	enforcerBase
}

// Name implements Operator.
func (*Broadcast) Name() string { return "Broadcast" }

// Arity implements Operator.
func (*Broadcast) Arity() int { return 1 }

// ParamHash implements Operator.
func (*Broadcast) ParamHash() uint64 {
	return hashString(fnvOffset, "broadcast")
}

// ParamEqual implements Operator.
func (*Broadcast) ParamEqual(other Operator) bool {
	_, ok := other.(*Broadcast)
	return ok
}

// Spool materializes its child so the subtree can be rewound and replayed
// (the rewindability property NLJoin requires of its inner side).
type Spool struct {
	enforcerBase
}

// Name implements Operator.
func (*Spool) Name() string { return "Spool" }

// Arity implements Operator.
func (*Spool) Arity() int { return 1 }

// ParamHash implements Operator.
func (*Spool) ParamHash() uint64 {
	return hashString(fnvOffset, "spool")
}

// ParamEqual implements Operator.
func (*Spool) ParamEqual(other Operator) bool {
	_, ok := other.(*Spool)
	return ok
}

// Get is a logical table access: one instance of a base relation with its
// query-level column references (cf. dxl:LogicalGet in paper Listing 1).
type Get struct {
	logicalBase

	Alias string
	Rel   *md.Relation
	Cols  []*md.ColRef
}

// Name implements Operator.
func (*Get) Name() string { return "Get" }

// Arity implements Operator.
func (*Get) Arity() int { return 0 }

// ParamHash implements Operator.
func (x *Get) ParamHash() uint64 {
	h := hashString(fnvOffset, "get")
	h = hashMix(h, uint64(x.Rel.Mdid.OID))
	h = hashColRefs(h, x.Cols)
	return h
}

// ParamEqual implements Operator.
func (x *Get) ParamEqual(other Operator) bool {
	o, ok := other.(*Get)
	if !ok {
		return false
	}
	if !(x.Rel.Mdid == o.Rel.Mdid) {
		return false
	}
	if !(colRefsEqual(x.Cols, o.Cols)) {
		return false
	}
	return true
}

// Select filters its child by a predicate.
type Select struct {
	logicalBase

	Pred ScalarExpr
}

// Name implements Operator.
func (*Select) Name() string { return "Select" }

// Arity implements Operator.
func (*Select) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *Select) ParamHash() uint64 {
	h := hashString(fnvOffset, "select")
	h = hashScalar(h, x.Pred)
	return h
}

// ParamEqual implements Operator.
func (x *Select) ParamEqual(other Operator) bool {
	o, ok := other.(*Select)
	if !ok {
		return false
	}
	if !(scalarEqual(x.Pred, o.Pred)) {
		return false
	}
	return true
}

// Project computes one output column per element over its child.
type Project struct {
	logicalBase

	Elems []ProjElem
}

// Name implements Operator.
func (*Project) Name() string { return "Project" }

// Arity implements Operator.
func (*Project) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *Project) ParamHash() uint64 {
	h := hashString(fnvOffset, "project")
	h = hashProjElems(h, x.Elems)
	return h
}

// ParamEqual implements Operator.
func (x *Project) ParamEqual(other Operator) bool {
	o, ok := other.(*Project)
	if !ok {
		return false
	}
	if !(projElemsEqual(x.Elems, o.Elems)) {
		return false
	}
	return true
}

// Join is a binary logical join (children: outer, inner). A nil predicate
// means cross join / constant TRUE. Name() is hand-written: it renders the
// join type ("InnerJoin", "SemiJoin", ...).
type Join struct {
	logicalBase

	Type JoinType
	Pred ScalarExpr
}

// Arity implements Operator.
func (*Join) Arity() int { return 2 }

// ParamHash implements Operator.
func (x *Join) ParamHash() uint64 {
	h := hashString(fnvOffset, "join")
	h = hashMix(h, uint64(x.Type))
	h = hashScalar(h, x.Pred)
	return h
}

// ParamEqual implements Operator.
func (x *Join) ParamEqual(other Operator) bool {
	o, ok := other.(*Join)
	if !ok {
		return false
	}
	if !(x.Type == o.Type) {
		return false
	}
	if !(scalarEqual(x.Pred, o.Pred)) {
		return false
	}
	return true
}

// NAryJoin is the collapsed inner-join of several inputs plus the
// conjunction of all join predicates; the join-ordering rules expand it.
type NAryJoin struct {
	logicalBase

	Preds []ScalarExpr
}

// Name implements Operator.
func (*NAryJoin) Name() string { return "NAryJoin" }

// Arity implements Operator.
func (*NAryJoin) Arity() int { return -1 }

// ParamHash implements Operator.
func (x *NAryJoin) ParamHash() uint64 {
	h := hashString(fnvOffset, "naryjoin")
	h = hashScalars(h, x.Preds)
	return h
}

// ParamEqual implements Operator.
func (x *NAryJoin) ParamEqual(other Operator) bool {
	o, ok := other.(*NAryJoin)
	if !ok {
		return false
	}
	if !(scalarsEqual(x.Preds, o.Preds)) {
		return false
	}
	return true
}

// GbAgg groups its child by GroupCols and computes one aggregate per
// element; empty GroupCols is scalar aggregation.
type GbAgg struct {
	logicalBase

	GroupCols []base.ColID
	Aggs      []AggElem
}

// Name implements Operator.
func (*GbAgg) Name() string { return "GbAgg" }

// Arity implements Operator.
func (*GbAgg) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *GbAgg) ParamHash() uint64 {
	h := hashString(fnvOffset, "gbagg")
	h = hashColIDs(h, x.GroupCols)
	h = hashAggElems(h, x.Aggs)
	return h
}

// ParamEqual implements Operator.
func (x *GbAgg) ParamEqual(other Operator) bool {
	o, ok := other.(*GbAgg)
	if !ok {
		return false
	}
	if !(colIDsEqual(x.GroupCols, o.GroupCols)) {
		return false
	}
	if !(aggElemsEqual(x.Aggs, o.Aggs)) {
		return false
	}
	return true
}

// Limit returns the first Count rows (when HasCount) after Offset, in the
// given order.
type Limit struct {
	logicalBase

	Order    props.OrderSpec
	Count    int64
	Offset   int64
	HasCount bool
}

// Name implements Operator.
func (*Limit) Name() string { return "Limit" }

// Arity implements Operator.
func (*Limit) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *Limit) ParamHash() uint64 {
	h := hashString(fnvOffset, "limit")
	h = hashMix(h, x.Order.Hash())
	h = hashMix(h, uint64(x.Count))
	h = hashMix(h, uint64(x.Offset))
	if x.HasCount {
		h = hashMix(h, 1)
	}
	return h
}

// ParamEqual implements Operator.
func (x *Limit) ParamEqual(other Operator) bool {
	o, ok := other.(*Limit)
	if !ok {
		return false
	}
	if !(x.Order.Equal(o.Order)) {
		return false
	}
	if !(x.Count == o.Count) {
		return false
	}
	if !(x.Offset == o.Offset) {
		return false
	}
	if !(x.HasCount == o.HasCount) {
		return false
	}
	return true
}

// UnionAll concatenates its children. InCols maps each child's columns to
// the output positions; OutCols are the produced column references.
type UnionAll struct {
	logicalBase

	InCols  [][]base.ColID
	OutCols []*md.ColRef
}

// Name implements Operator.
func (*UnionAll) Name() string { return "UnionAll" }

// Arity implements Operator.
func (*UnionAll) Arity() int { return -1 }

// ParamHash implements Operator.
func (x *UnionAll) ParamHash() uint64 {
	h := hashString(fnvOffset, "unionall")
	h = hashColIDLists(h, x.InCols)
	h = hashColRefs(h, x.OutCols)
	return h
}

// ParamEqual implements Operator.
func (x *UnionAll) ParamEqual(other Operator) bool {
	o, ok := other.(*UnionAll)
	if !ok {
		return false
	}
	if !(colIDListsEqual(x.InCols, o.InCols)) {
		return false
	}
	if !(colRefsEqual(x.OutCols, o.OutCols)) {
		return false
	}
	return true
}

// CTEAnchor binds a CTE producer (child 0) to the consuming query subtree
// (child 1); Cols are the producer's output columns.
type CTEAnchor struct {
	logicalBase

	ID   int
	Cols []*md.ColRef
}

// Name implements Operator.
func (*CTEAnchor) Name() string { return "CTEAnchor" }

// Arity implements Operator.
func (*CTEAnchor) Arity() int { return 2 }

// ParamHash implements Operator.
func (x *CTEAnchor) ParamHash() uint64 {
	h := hashString(fnvOffset, "cteanchor")
	h = hashMix(h, uint64(x.ID))
	h = hashColRefs(h, x.Cols)
	return h
}

// ParamEqual implements Operator.
func (x *CTEAnchor) ParamEqual(other Operator) bool {
	o, ok := other.(*CTEAnchor)
	if !ok {
		return false
	}
	if !(x.ID == o.ID) {
		return false
	}
	if !(colRefsEqual(x.Cols, o.Cols)) {
		return false
	}
	return true
}

// CTEConsumer reads one CTE instance, mapping the producer columns
// (positionally) to this consumer's output column references.
type CTEConsumer struct {
	logicalBase

	ID           int
	Cols         []*md.ColRef
	ProducerCols []base.ColID
}

// Name implements Operator.
func (*CTEConsumer) Name() string { return "CTEConsumer" }

// Arity implements Operator.
func (*CTEConsumer) Arity() int { return 0 }

// ParamHash implements Operator.
func (x *CTEConsumer) ParamHash() uint64 {
	h := hashString(fnvOffset, "cteconsumer")
	h = hashMix(h, uint64(x.ID))
	h = hashColRefs(h, x.Cols)
	h = hashColIDs(h, x.ProducerCols)
	return h
}

// ParamEqual implements Operator.
func (x *CTEConsumer) ParamEqual(other Operator) bool {
	o, ok := other.(*CTEConsumer)
	if !ok {
		return false
	}
	if !(x.ID == o.ID) {
		return false
	}
	if !(colRefsEqual(x.Cols, o.Cols)) {
		return false
	}
	if !(colIDsEqual(x.ProducerCols, o.ProducerCols)) {
		return false
	}
	return true
}

// Window computes window functions over partitions of its child.
type Window struct {
	logicalBase

	PartitionCols []base.ColID
	Order         props.OrderSpec
	Wins          []WinElem
}

// Name implements Operator.
func (*Window) Name() string { return "Window" }

// Arity implements Operator.
func (*Window) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *Window) ParamHash() uint64 {
	h := hashString(fnvOffset, "window")
	h = hashColIDs(h, x.PartitionCols)
	h = hashMix(h, x.Order.Hash())
	h = hashWinElems(h, x.Wins)
	return h
}

// ParamEqual implements Operator.
func (x *Window) ParamEqual(other Operator) bool {
	o, ok := other.(*Window)
	if !ok {
		return false
	}
	if !(colIDsEqual(x.PartitionCols, o.PartitionCols)) {
		return false
	}
	if !(x.Order.Equal(o.Order)) {
		return false
	}
	if !(winElemsEqual(x.Wins, o.Wins)) {
		return false
	}
	return true
}

// Scan is a physical table scan. Filter is an optional pushed-down
// predicate evaluated during the scan. For partitioned tables, Pruned and
// Parts record static partition elimination (paper §7.2.2): when Pruned is
// set, only the partitions listed in Parts are read. BaseRows is derived
// state set by the implementation rules for costing.
type Scan struct {
	physicalBase

	Alias    string
	Rel      *md.Relation
	Cols     []*md.ColRef
	Filter   ScalarExpr
	Pruned   bool
	Parts    []int
	BaseRows float64
}

// Name implements Operator.
func (*Scan) Name() string { return "Scan" }

// Arity implements Operator.
func (*Scan) Arity() int { return 0 }

// ParamHash implements Operator.
func (x *Scan) ParamHash() uint64 {
	h := hashString(fnvOffset, "scan")
	h = hashMix(h, uint64(x.Rel.Mdid.OID))
	h = hashColRefs(h, x.Cols)
	h = hashScalar(h, x.Filter)
	if x.Pruned {
		h = hashMix(h, 1)
	}
	h = hashInts(h, x.Parts)
	return h
}

// ParamEqual implements Operator.
func (x *Scan) ParamEqual(other Operator) bool {
	o, ok := other.(*Scan)
	if !ok {
		return false
	}
	if !(x.Rel.Mdid == o.Rel.Mdid) {
		return false
	}
	if !(colRefsEqual(x.Cols, o.Cols)) {
		return false
	}
	if !(scalarEqual(x.Filter, o.Filter)) {
		return false
	}
	if !(x.Pruned == o.Pruned) {
		return false
	}
	if !(intsEqual(x.Parts, o.Parts)) {
		return false
	}
	return true
}

// IndexScan reads a relation through a secondary index, delivering the
// index order without a Sort enforcer. EqFilter is the portion of the
// predicate matched against the index key; Residual is evaluated
// afterwards. BaseRows is the table's estimated row count (derived state)
// used by the cost model's lookup formula.
type IndexScan struct {
	physicalBase

	Alias    string
	Rel      *md.Relation
	Index    *md.Index
	Cols     []*md.ColRef
	EqFilter ScalarExpr
	Residual ScalarExpr
	BaseRows float64
}

// Name implements Operator.
func (*IndexScan) Name() string { return "IndexScan" }

// Arity implements Operator.
func (*IndexScan) Arity() int { return 0 }

// ParamHash implements Operator.
func (x *IndexScan) ParamHash() uint64 {
	h := hashString(fnvOffset, "indexscan")
	h = hashMix(h, uint64(x.Rel.Mdid.OID))
	h = hashMix(h, uint64(x.Index.Mdid.OID))
	h = hashColRefs(h, x.Cols)
	h = hashScalar(h, x.EqFilter)
	h = hashScalar(h, x.Residual)
	return h
}

// ParamEqual implements Operator.
func (x *IndexScan) ParamEqual(other Operator) bool {
	o, ok := other.(*IndexScan)
	if !ok {
		return false
	}
	if !(x.Rel.Mdid == o.Rel.Mdid) {
		return false
	}
	if !(x.Index.Mdid == o.Index.Mdid) {
		return false
	}
	if !(colRefsEqual(x.Cols, o.Cols)) {
		return false
	}
	if !(scalarEqual(x.EqFilter, o.EqFilter)) {
		return false
	}
	if !(scalarEqual(x.Residual, o.Residual)) {
		return false
	}
	return true
}

// Filter evaluates a predicate over its child.
type Filter struct {
	physicalBase

	Pred ScalarExpr
}

// Name implements Operator.
func (*Filter) Name() string { return "Filter" }

// Arity implements Operator.
func (*Filter) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *Filter) ParamHash() uint64 {
	h := hashString(fnvOffset, "filter")
	h = hashScalar(h, x.Pred)
	return h
}

// ParamEqual implements Operator.
func (x *Filter) ParamEqual(other Operator) bool {
	o, ok := other.(*Filter)
	if !ok {
		return false
	}
	if !(scalarEqual(x.Pred, o.Pred)) {
		return false
	}
	return true
}

// ComputeScalar evaluates the projection elements over its child. PassMap
// (derived, built by NewComputeScalar) maps pass-through output columns to
// input columns for property translation.
type ComputeScalar struct {
	physicalBase

	Elems   []ProjElem
	PassMap map[base.ColID]base.ColID
}

// Name implements Operator.
func (*ComputeScalar) Name() string { return "ComputeScalar" }

// Arity implements Operator.
func (*ComputeScalar) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *ComputeScalar) ParamHash() uint64 {
	h := hashString(fnvOffset, "computescalar")
	h = hashProjElems(h, x.Elems)
	return h
}

// ParamEqual implements Operator.
func (x *ComputeScalar) ParamEqual(other Operator) bool {
	o, ok := other.(*ComputeScalar)
	if !ok {
		return false
	}
	if !(projElemsEqual(x.Elems, o.Elems)) {
		return false
	}
	return true
}

// HashJoin builds a hash table on the inner child keyed on RightKeys and
// probes with LeftKeys; Residual holds the non-equijoin conjuncts. Name()
// is hand-written ("InnerHashJoin", "SemiHashJoin", ...).
type HashJoin struct {
	physicalBase

	Type      JoinType
	LeftKeys  []base.ColID
	RightKeys []base.ColID
	Residual  ScalarExpr
}

// Arity implements Operator.
func (*HashJoin) Arity() int { return 2 }

// ParamHash implements Operator.
func (x *HashJoin) ParamHash() uint64 {
	h := hashString(fnvOffset, "hashjoin")
	h = hashMix(h, uint64(x.Type))
	h = hashColIDs(h, x.LeftKeys)
	h = hashColIDs(h, x.RightKeys)
	h = hashScalar(h, x.Residual)
	return h
}

// ParamEqual implements Operator.
func (x *HashJoin) ParamEqual(other Operator) bool {
	o, ok := other.(*HashJoin)
	if !ok {
		return false
	}
	if !(x.Type == o.Type) {
		return false
	}
	if !(colIDsEqual(x.LeftKeys, o.LeftKeys)) {
		return false
	}
	if !(colIDsEqual(x.RightKeys, o.RightKeys)) {
		return false
	}
	if !(scalarEqual(x.Residual, o.Residual)) {
		return false
	}
	return true
}

// NLJoin evaluates the predicate over the cross product of its children,
// rewinding the inner side per outer row. Name() is hand-written.
type NLJoin struct {
	physicalBase

	Type JoinType
	Pred ScalarExpr
}

// Arity implements Operator.
func (*NLJoin) Arity() int { return 2 }

// ParamHash implements Operator.
func (x *NLJoin) ParamHash() uint64 {
	h := hashString(fnvOffset, "nljoin")
	h = hashMix(h, uint64(x.Type))
	h = hashScalar(h, x.Pred)
	return h
}

// ParamEqual implements Operator.
func (x *NLJoin) ParamEqual(other Operator) bool {
	o, ok := other.(*NLJoin)
	if !ok {
		return false
	}
	if !(x.Type == o.Type) {
		return false
	}
	if !(scalarEqual(x.Pred, o.Pred)) {
		return false
	}
	return true
}

// HashAgg groups by hashing. Mode distinguishes the single-phase form from
// the local/global halves of two-stage aggregation (paper §7.2.1). Name()
// is hand-written ("SingleHashAgg", "LocalHashAgg", ...).
type HashAgg struct {
	physicalBase

	Mode      AggMode
	GroupCols []base.ColID
	Aggs      []AggElem
}

// Arity implements Operator.
func (*HashAgg) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *HashAgg) ParamHash() uint64 {
	h := hashString(fnvOffset, "hashagg")
	h = hashMix(h, uint64(x.Mode))
	h = hashColIDs(h, x.GroupCols)
	h = hashAggElems(h, x.Aggs)
	return h
}

// ParamEqual implements Operator.
func (x *HashAgg) ParamEqual(other Operator) bool {
	o, ok := other.(*HashAgg)
	if !ok {
		return false
	}
	if !(x.Mode == o.Mode) {
		return false
	}
	if !(colIDsEqual(x.GroupCols, o.GroupCols)) {
		return false
	}
	if !(aggElemsEqual(x.Aggs, o.Aggs)) {
		return false
	}
	return true
}

// StreamAgg groups over sorted input, emitting groups in order.
type StreamAgg struct {
	physicalBase

	GroupCols []base.ColID
	Aggs      []AggElem
}

// Name implements Operator.
func (*StreamAgg) Name() string { return "StreamAgg" }

// Arity implements Operator.
func (*StreamAgg) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *StreamAgg) ParamHash() uint64 {
	h := hashString(fnvOffset, "streamagg")
	h = hashColIDs(h, x.GroupCols)
	h = hashAggElems(h, x.Aggs)
	return h
}

// ParamEqual implements Operator.
func (x *StreamAgg) ParamEqual(other Operator) bool {
	o, ok := other.(*StreamAgg)
	if !ok {
		return false
	}
	if !(colIDsEqual(x.GroupCols, o.GroupCols)) {
		return false
	}
	if !(aggElemsEqual(x.Aggs, o.Aggs)) {
		return false
	}
	return true
}

// ScalarAgg computes aggregates without grouping (exactly one output row).
// Name() is hand-written ("SingleScalarAgg", ...).
type ScalarAgg struct {
	physicalBase

	Mode AggMode
	Aggs []AggElem
}

// Arity implements Operator.
func (*ScalarAgg) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *ScalarAgg) ParamHash() uint64 {
	h := hashString(fnvOffset, "scalaragg")
	h = hashMix(h, uint64(x.Mode))
	h = hashAggElems(h, x.Aggs)
	return h
}

// ParamEqual implements Operator.
func (x *ScalarAgg) ParamEqual(other Operator) bool {
	o, ok := other.(*ScalarAgg)
	if !ok {
		return false
	}
	if !(x.Mode == o.Mode) {
		return false
	}
	if !(aggElemsEqual(x.Aggs, o.Aggs)) {
		return false
	}
	return true
}

// PhysicalLimit implements Limit; it requires the order from its child and
// truncates the stream.
type PhysicalLimit struct {
	physicalBase

	Order    props.OrderSpec
	Count    int64
	Offset   int64
	HasCount bool
}

// Name implements Operator.
func (*PhysicalLimit) Name() string { return "Limit" }

// Arity implements Operator.
func (*PhysicalLimit) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *PhysicalLimit) ParamHash() uint64 {
	h := hashString(fnvOffset, "physicallimit")
	h = hashMix(h, x.Order.Hash())
	h = hashMix(h, uint64(x.Count))
	h = hashMix(h, uint64(x.Offset))
	if x.HasCount {
		h = hashMix(h, 1)
	}
	return h
}

// ParamEqual implements Operator.
func (x *PhysicalLimit) ParamEqual(other Operator) bool {
	o, ok := other.(*PhysicalLimit)
	if !ok {
		return false
	}
	if !(x.Order.Equal(o.Order)) {
		return false
	}
	if !(x.Count == o.Count) {
		return false
	}
	if !(x.Offset == o.Offset) {
		return false
	}
	if !(x.HasCount == o.HasCount) {
		return false
	}
	return true
}

// PhysicalUnionAll concatenates its children, mapping each child's columns
// (InCols, positionally) to the output references.
type PhysicalUnionAll struct {
	physicalBase

	InCols  [][]base.ColID
	OutCols []*md.ColRef
}

// Name implements Operator.
func (*PhysicalUnionAll) Name() string { return "UnionAll" }

// Arity implements Operator.
func (*PhysicalUnionAll) Arity() int { return -1 }

// ParamHash implements Operator.
func (x *PhysicalUnionAll) ParamHash() uint64 {
	h := hashString(fnvOffset, "physicalunionall")
	h = hashColIDLists(h, x.InCols)
	h = hashColRefs(h, x.OutCols)
	return h
}

// ParamEqual implements Operator.
func (x *PhysicalUnionAll) ParamEqual(other Operator) bool {
	o, ok := other.(*PhysicalUnionAll)
	if !ok {
		return false
	}
	if !(colIDListsEqual(x.InCols, o.InCols)) {
		return false
	}
	if !(colRefsEqual(x.OutCols, o.OutCols)) {
		return false
	}
	return true
}

// Sequence runs child 0 (the CTE producer side) to completion, then child 1
// (the consuming plan), returning the latter's rows.
type Sequence struct {
	physicalBase
}

// Name implements Operator.
func (*Sequence) Name() string { return "Sequence" }

// Arity implements Operator.
func (*Sequence) Arity() int { return 2 }

// ParamHash implements Operator.
func (*Sequence) ParamHash() uint64 {
	return hashString(fnvOffset, "sequence")
}

// ParamEqual implements Operator.
func (*Sequence) ParamEqual(other Operator) bool {
	_, ok := other.(*Sequence)
	return ok
}

// PhysicalCTEProducer materializes its child once under a CTE id for the
// consumers in the same Sequence.
type PhysicalCTEProducer struct {
	physicalBase

	ID   int
	Cols []base.ColID
}

// Name implements Operator.
func (*PhysicalCTEProducer) Name() string { return "CTEProducer" }

// Arity implements Operator.
func (*PhysicalCTEProducer) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *PhysicalCTEProducer) ParamHash() uint64 {
	h := hashString(fnvOffset, "physicalcteproducer")
	h = hashMix(h, uint64(x.ID))
	h = hashColIDs(h, x.Cols)
	return h
}

// ParamEqual implements Operator.
func (x *PhysicalCTEProducer) ParamEqual(other Operator) bool {
	o, ok := other.(*PhysicalCTEProducer)
	if !ok {
		return false
	}
	if !(x.ID == o.ID) {
		return false
	}
	if !(colIDsEqual(x.Cols, o.Cols)) {
		return false
	}
	return true
}

// PhysicalCTEConsumer replays a materialized CTE, mapping the producer
// columns (positionally) to this consumer's output references.
type PhysicalCTEConsumer struct {
	physicalBase

	ID           int
	Cols         []*md.ColRef
	ProducerCols []base.ColID
}

// Name implements Operator.
func (*PhysicalCTEConsumer) Name() string { return "CTEConsumer" }

// Arity implements Operator.
func (*PhysicalCTEConsumer) Arity() int { return 0 }

// ParamHash implements Operator.
func (x *PhysicalCTEConsumer) ParamHash() uint64 {
	h := hashString(fnvOffset, "physicalcteconsumer")
	h = hashMix(h, uint64(x.ID))
	h = hashColRefs(h, x.Cols)
	h = hashColIDs(h, x.ProducerCols)
	return h
}

// ParamEqual implements Operator.
func (x *PhysicalCTEConsumer) ParamEqual(other Operator) bool {
	o, ok := other.(*PhysicalCTEConsumer)
	if !ok {
		return false
	}
	if !(x.ID == o.ID) {
		return false
	}
	if !(colRefsEqual(x.Cols, o.Cols)) {
		return false
	}
	if !(colIDsEqual(x.ProducerCols, o.ProducerCols)) {
		return false
	}
	return true
}

// PhysicalWindow computes window functions over sorted partitions.
type PhysicalWindow struct {
	physicalBase

	PartitionCols []base.ColID
	Order         props.OrderSpec
	Wins          []WinElem
}

// Name implements Operator.
func (*PhysicalWindow) Name() string { return "Window" }

// Arity implements Operator.
func (*PhysicalWindow) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *PhysicalWindow) ParamHash() uint64 {
	h := hashString(fnvOffset, "physicalwindow")
	h = hashColIDs(h, x.PartitionCols)
	h = hashMix(h, x.Order.Hash())
	h = hashWinElems(h, x.Wins)
	return h
}

// ParamEqual implements Operator.
func (x *PhysicalWindow) ParamEqual(other Operator) bool {
	o, ok := other.(*PhysicalWindow)
	if !ok {
		return false
	}
	if !(colIDsEqual(x.PartitionCols, o.PartitionCols)) {
		return false
	}
	if !(x.Order.Equal(o.Order)) {
		return false
	}
	if !(winElemsEqual(x.Wins, o.Wins)) {
		return false
	}
	return true
}

// SubPlanFilter filters its child by evaluating a bound subplan per row
// (EXISTS / IN / scalar comparison, per Kind); Test combines the subplan
// column with the outer row. Identity is pointer identity: the bound Plan
// is out-of-line state structural comparison cannot cover.
type SubPlanFilter struct {
	physicalBase

	Kind   SubqueryKind
	Plan   *Expr
	SubCol base.ColID
	Test   ScalarExpr
}

// Name implements Operator.
func (*SubPlanFilter) Name() string { return "SubPlanFilter" }

// Arity implements Operator.
func (*SubPlanFilter) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *SubPlanFilter) ParamHash() uint64 {
	h := hashString(fnvOffset, "subplanfilter")
	h = hashMix(h, uint64(x.Kind))
	h = hashMix(h, uint64(x.SubCol))
	h = hashScalar(h, x.Test)
	return h
}

// ParamEqual implements Operator.
func (x *SubPlanFilter) ParamEqual(other Operator) bool {
	o, ok := other.(*SubPlanFilter)
	return ok && o == x
}

// SubPlanProject computes one output column per outer row by running a
// bound scalar subplan. Identity is pointer identity, as for SubPlanFilter.
type SubPlanProject struct {
	physicalBase

	Plan   *Expr
	SubCol base.ColID
	OutCol base.ColID
}

// Name implements Operator.
func (*SubPlanProject) Name() string { return "SubPlanProject" }

// Arity implements Operator.
func (*SubPlanProject) Arity() int { return 1 }

// ParamHash implements Operator.
func (x *SubPlanProject) ParamHash() uint64 {
	h := hashString(fnvOffset, "subplanproject")
	h = hashMix(h, uint64(x.SubCol))
	h = hashMix(h, uint64(x.OutCol))
	return h
}

// ParamEqual implements Operator.
func (x *SubPlanProject) ParamEqual(other Operator) bool {
	o, ok := other.(*SubPlanProject)
	return ok && o == x
}

// The hand-written operators declared in defs/: each must exist with
// the declared kind.
var (
	_ ScalarExpr = (*Ident)(nil)
	_ ScalarExpr = (*Const)(nil)
	_ ScalarExpr = (*Param)(nil)
	_ ScalarExpr = (*Cmp)(nil)
	_ ScalarExpr = (*BoolOp)(nil)
	_ ScalarExpr = (*BinOp)(nil)
	_ ScalarExpr = (*Func)(nil)
	_ ScalarExpr = (*Case)(nil)
	_ ScalarExpr = (*IsNull)(nil)
	_ ScalarExpr = (*InList)(nil)
	_ ScalarExpr = (*Subquery)(nil)
)
