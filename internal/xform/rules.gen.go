// Code generated by cmd/optgen from defs/*.opt. DO NOT EDIT.

package xform

import (
	"orca/internal/memo"

	"orca/internal/ops"
)

// Generated dense rule IDs, in defs/ declaration order. The set is
// closed: no rule is registered at run time.
const (
	RuleIDJoinCommutativity = iota
	RuleIDJoinAssociativity
	RuleIDExpandNAryJoinDP
	RuleIDExpandNAryJoinGreedy
	RuleIDExpandNAryJoinLeftDeep
	RuleIDGet2Scan
	RuleIDSelect2Scan
	RuleIDSelect2IndexScan
	RuleIDSelect2Filter
	RuleIDProject2ComputeScalar
	RuleIDJoin2HashJoin
	RuleIDJoin2NLJoin
	RuleIDGbAgg2HashAgg
	RuleIDGbAgg2StreamAgg
	RuleIDGbAgg2TwoStageAgg
	RuleIDLimit2PhysicalLimit
	RuleIDUnionAll2Physical
	RuleIDCTEAnchor2Sequence
	RuleIDCTEConsumer2Physical
	RuleIDWindow2PhysicalWindow

	// NumGeneratedRuleIDs is the number of compile-time rule IDs.
	NumGeneratedRuleIDs
)

// generatedRuleNames maps generated IDs back to rule names.
var generatedRuleNames = [NumGeneratedRuleIDs]string{
	RuleIDJoinCommutativity:      "JoinCommutativity",
	RuleIDJoinAssociativity:      "JoinAssociativity",
	RuleIDExpandNAryJoinDP:       "ExpandNAryJoinDP",
	RuleIDExpandNAryJoinGreedy:   "ExpandNAryJoinGreedy",
	RuleIDExpandNAryJoinLeftDeep: "ExpandNAryJoinLeftDeep",
	RuleIDGet2Scan:               "Get2Scan",
	RuleIDSelect2Scan:            "Select2Scan",
	RuleIDSelect2IndexScan:       "Select2IndexScan",
	RuleIDSelect2Filter:          "Select2Filter",
	RuleIDProject2ComputeScalar:  "Project2ComputeScalar",
	RuleIDJoin2HashJoin:          "Join2HashJoin",
	RuleIDJoin2NLJoin:            "Join2NLJoin",
	RuleIDGbAgg2HashAgg:          "GbAgg2HashAgg",
	RuleIDGbAgg2StreamAgg:        "GbAgg2StreamAgg",
	RuleIDGbAgg2TwoStageAgg:      "GbAgg2TwoStageAgg",
	RuleIDLimit2PhysicalLimit:    "Limit2PhysicalLimit",
	RuleIDUnionAll2Physical:      "UnionAll2Physical",
	RuleIDCTEAnchor2Sequence:     "CTEAnchor2Sequence",
	RuleIDCTEConsumer2Physical:   "CTEConsumer2Physical",
	RuleIDWindow2PhysicalWindow:  "Window2PhysicalWindow",
}

// generatedRuleIDs resolves generated rule names to their dense IDs.
// The map is never mutated after package init, so lookups are safe
// without locking.
var generatedRuleIDs = map[string]int{
	"JoinCommutativity":      RuleIDJoinCommutativity,
	"JoinAssociativity":      RuleIDJoinAssociativity,
	"ExpandNAryJoinDP":       RuleIDExpandNAryJoinDP,
	"ExpandNAryJoinGreedy":   RuleIDExpandNAryJoinGreedy,
	"ExpandNAryJoinLeftDeep": RuleIDExpandNAryJoinLeftDeep,
	"Get2Scan":               RuleIDGet2Scan,
	"Select2Scan":            RuleIDSelect2Scan,
	"Select2IndexScan":       RuleIDSelect2IndexScan,
	"Select2Filter":          RuleIDSelect2Filter,
	"Project2ComputeScalar":  RuleIDProject2ComputeScalar,
	"Join2HashJoin":          RuleIDJoin2HashJoin,
	"Join2NLJoin":            RuleIDJoin2NLJoin,
	"GbAgg2HashAgg":          RuleIDGbAgg2HashAgg,
	"GbAgg2StreamAgg":        RuleIDGbAgg2StreamAgg,
	"GbAgg2TwoStageAgg":      RuleIDGbAgg2TwoStageAgg,
	"Limit2PhysicalLimit":    RuleIDLimit2PhysicalLimit,
	"UnionAll2Physical":      RuleIDUnionAll2Physical,
	"CTEAnchor2Sequence":     RuleIDCTEAnchor2Sequence,
	"CTEConsumer2Physical":   RuleIDCTEConsumer2Physical,
	"Window2PhysicalWindow":  RuleIDWindow2PhysicalWindow,
}

// JoinCommutativity swaps the children of an inner join: A ⋈ B → B ⋈ A.
type JoinCommutativity struct{}

// Name implements Rule.
func (*JoinCommutativity) Name() string { return "JoinCommutativity" }

// Kind implements Rule.
func (*JoinCommutativity) Kind() Kind { return Exploration }

// Matches implements Rule.
func (*JoinCommutativity) Matches(ge *memo.GroupExpr) bool {
	op, ok := ge.Op.(*ops.Join)
	return ok && matchJoinCommutativity(op, ge)
}

// Apply implements Rule; the transformation body is hand-written.
func (*JoinCommutativity) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyJoinCommutativity(ctx, ge)
}

// JoinAssociativity rotates left-deep inner joins right:
// (A ⋈ B) ⋈ C → A ⋈ (B ⋈ C), splitting the combined predicate by which
// side covers it.
type JoinAssociativity struct{}

// Name implements Rule.
func (*JoinAssociativity) Name() string { return "JoinAssociativity" }

// Kind implements Rule.
func (*JoinAssociativity) Kind() Kind { return Exploration }

// Matches implements Rule.
func (*JoinAssociativity) Matches(ge *memo.GroupExpr) bool {
	op, ok := ge.Op.(*ops.Join)
	return ok && matchJoinAssociativity(op, ge)
}

// Apply implements Rule; the transformation body is hand-written.
func (*JoinAssociativity) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyJoinAssociativity(ctx, ge)
}

// ExpandNAryJoinDP enumerates join trees for an NAryJoin with dynamic
// programming over connected subgraphs (DPsub), up to 10 relations.
type ExpandNAryJoinDP struct{}

// Name implements Rule.
func (*ExpandNAryJoinDP) Name() string { return "ExpandNAryJoinDP" }

// Kind implements Rule.
func (*ExpandNAryJoinDP) Kind() Kind { return Exploration }

// Matches implements Rule.
func (*ExpandNAryJoinDP) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.NAryJoin)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*ExpandNAryJoinDP) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyExpandNAryJoinDP(ctx, ge)
}

// ExpandNAryJoinGreedy builds one join tree by repeatedly joining the pair
// with the smallest estimated result — the polynomial fallback above the
// DP size limit.
type ExpandNAryJoinGreedy struct{}

// Name implements Rule.
func (*ExpandNAryJoinGreedy) Name() string { return "ExpandNAryJoinGreedy" }

// Kind implements Rule.
func (*ExpandNAryJoinGreedy) Kind() Kind { return Exploration }

// Matches implements Rule.
func (*ExpandNAryJoinGreedy) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.NAryJoin)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*ExpandNAryJoinGreedy) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyExpandNAryJoinGreedy(ctx, ge)
}

// ExpandNAryJoinLeftDeep builds the literal left-deep tree in input order,
// a safety net ensuring at least one expansion exists.
type ExpandNAryJoinLeftDeep struct{}

// Name implements Rule.
func (*ExpandNAryJoinLeftDeep) Name() string { return "ExpandNAryJoinLeftDeep" }

// Kind implements Rule.
func (*ExpandNAryJoinLeftDeep) Kind() Kind { return Exploration }

// Matches implements Rule.
func (*ExpandNAryJoinLeftDeep) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.NAryJoin)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*ExpandNAryJoinLeftDeep) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyExpandNAryJoinLeftDeep(ctx, ge)
}

// Get2Scan implements a table access as a physical Scan.
type Get2Scan struct{}

// Name implements Rule.
func (*Get2Scan) Name() string { return "Get2Scan" }

// Kind implements Rule.
func (*Get2Scan) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*Get2Scan) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.Get)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*Get2Scan) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyGet2Scan(ctx, ge)
}

// Select2Scan fuses a Select over a Get into a filtering Scan, applying
// static partition elimination (paper §7.2.2).
type Select2Scan struct{}

// Name implements Rule.
func (*Select2Scan) Name() string { return "Select2Scan" }

// Kind implements Rule.
func (*Select2Scan) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*Select2Scan) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.Select)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*Select2Scan) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applySelect2Scan(ctx, ge)
}

// Select2IndexScan implements a Select over a Get through a matching
// secondary index, splitting the predicate into index condition and
// residual.
type Select2IndexScan struct{}

// Name implements Rule.
func (*Select2IndexScan) Name() string { return "Select2IndexScan" }

// Kind implements Rule.
func (*Select2IndexScan) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*Select2IndexScan) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.Select)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*Select2IndexScan) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applySelect2IndexScan(ctx, ge)
}

// Select2Filter implements Select as a standalone Filter node.
type Select2Filter struct{}

// Name implements Rule.
func (*Select2Filter) Name() string { return "Select2Filter" }

// Kind implements Rule.
func (*Select2Filter) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*Select2Filter) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.Select)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*Select2Filter) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applySelect2Filter(ctx, ge)
}

// Project2ComputeScalar implements Project as ComputeScalar.
type Project2ComputeScalar struct{}

// Name implements Rule.
func (*Project2ComputeScalar) Name() string { return "Project2ComputeScalar" }

// Kind implements Rule.
func (*Project2ComputeScalar) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*Project2ComputeScalar) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.Project)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*Project2ComputeScalar) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyProject2ComputeScalar(ctx, ge)
}

// Join2HashJoin implements a join with equijoin conjuncts as a HashJoin.
type Join2HashJoin struct{}

// Name implements Rule.
func (*Join2HashJoin) Name() string { return "Join2HashJoin" }

// Kind implements Rule.
func (*Join2HashJoin) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*Join2HashJoin) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.Join)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*Join2HashJoin) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyJoin2HashJoin(ctx, ge)
}

// Join2NLJoin implements any join as a nested-loops join.
type Join2NLJoin struct{}

// Name implements Rule.
func (*Join2NLJoin) Name() string { return "Join2NLJoin" }

// Kind implements Rule.
func (*Join2NLJoin) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*Join2NLJoin) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.Join)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*Join2NLJoin) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyJoin2NLJoin(ctx, ge)
}

// GbAgg2HashAgg implements grouping as a hash aggregate (ScalarAgg when
// there are no grouping columns).
type GbAgg2HashAgg struct{}

// Name implements Rule.
func (*GbAgg2HashAgg) Name() string { return "GbAgg2HashAgg" }

// Kind implements Rule.
func (*GbAgg2HashAgg) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*GbAgg2HashAgg) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.GbAgg)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*GbAgg2HashAgg) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyGbAgg2HashAgg(ctx, ge)
}

// GbAgg2StreamAgg implements grouping as a stream aggregate over sorted
// input.
type GbAgg2StreamAgg struct{}

// Name implements Rule.
func (*GbAgg2StreamAgg) Name() string { return "GbAgg2StreamAgg" }

// Kind implements Rule.
func (*GbAgg2StreamAgg) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*GbAgg2StreamAgg) Matches(ge *memo.GroupExpr) bool {
	op, ok := ge.Op.(*ops.GbAgg)
	return ok && matchGbAgg2StreamAgg(op, ge)
}

// Apply implements Rule; the transformation body is hand-written.
func (*GbAgg2StreamAgg) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyGbAgg2StreamAgg(ctx, ge)
}

// GbAgg2TwoStageAgg splits grouping into local and global halves around
// the motion (paper §7.2.1); distinct aggregates cannot be split.
type GbAgg2TwoStageAgg struct{}

// Name implements Rule.
func (*GbAgg2TwoStageAgg) Name() string { return "GbAgg2TwoStageAgg" }

// Kind implements Rule.
func (*GbAgg2TwoStageAgg) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*GbAgg2TwoStageAgg) Matches(ge *memo.GroupExpr) bool {
	op, ok := ge.Op.(*ops.GbAgg)
	return ok && matchGbAgg2TwoStageAgg(op, ge)
}

// Apply implements Rule; the transformation body is hand-written.
func (*GbAgg2TwoStageAgg) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyGbAgg2TwoStageAgg(ctx, ge)
}

// Limit2PhysicalLimit implements Limit.
type Limit2PhysicalLimit struct{}

// Name implements Rule.
func (*Limit2PhysicalLimit) Name() string { return "Limit2PhysicalLimit" }

// Kind implements Rule.
func (*Limit2PhysicalLimit) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*Limit2PhysicalLimit) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.Limit)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*Limit2PhysicalLimit) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyLimit2PhysicalLimit(ctx, ge)
}

// UnionAll2Physical implements UnionAll.
type UnionAll2Physical struct{}

// Name implements Rule.
func (*UnionAll2Physical) Name() string { return "UnionAll2Physical" }

// Kind implements Rule.
func (*UnionAll2Physical) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*UnionAll2Physical) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.UnionAll)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*UnionAll2Physical) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyUnionAll2Physical(ctx, ge)
}

// CTEAnchor2Sequence implements a CTE anchor as Sequence(producer,
// consumer-side plan).
type CTEAnchor2Sequence struct{}

// Name implements Rule.
func (*CTEAnchor2Sequence) Name() string { return "CTEAnchor2Sequence" }

// Kind implements Rule.
func (*CTEAnchor2Sequence) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*CTEAnchor2Sequence) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.CTEAnchor)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*CTEAnchor2Sequence) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyCTEAnchor2Sequence(ctx, ge)
}

// CTEConsumer2Physical implements a CTE consumer.
type CTEConsumer2Physical struct{}

// Name implements Rule.
func (*CTEConsumer2Physical) Name() string { return "CTEConsumer2Physical" }

// Kind implements Rule.
func (*CTEConsumer2Physical) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*CTEConsumer2Physical) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.CTEConsumer)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*CTEConsumer2Physical) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyCTEConsumer2Physical(ctx, ge)
}

// Window2PhysicalWindow implements Window.
type Window2PhysicalWindow struct{}

// Name implements Rule.
func (*Window2PhysicalWindow) Name() string { return "Window2PhysicalWindow" }

// Kind implements Rule.
func (*Window2PhysicalWindow) Kind() Kind { return Implementation }

// Matches implements Rule.
func (*Window2PhysicalWindow) Matches(ge *memo.GroupExpr) bool {
	_, ok := ge.Op.(*ops.Window)
	return ok
}

// Apply implements Rule; the transformation body is hand-written.
func (*Window2PhysicalWindow) Apply(ctx *Context, ge *memo.GroupExpr) error {
	return applyWindow2PhysicalWindow(ctx, ge)
}

// DefaultRules returns the generated rule set in defs/ declaration
// order: exploration rules first, then implementation rules.
func DefaultRules() []Rule {
	return []Rule{
		&JoinCommutativity{},
		&JoinAssociativity{},
		&ExpandNAryJoinDP{},
		&ExpandNAryJoinGreedy{},
		&ExpandNAryJoinLeftDeep{},
		&Get2Scan{},
		&Select2Scan{},
		&Select2IndexScan{},
		&Select2Filter{},
		&Project2ComputeScalar{},
		&Join2HashJoin{},
		&Join2NLJoin{},
		&GbAgg2HashAgg{},
		&GbAgg2StreamAgg{},
		&GbAgg2TwoStageAgg{},
		&Limit2PhysicalLimit{},
		&UnionAll2Physical{},
		&CTEAnchor2Sequence{},
		&CTEConsumer2Physical{},
		&Window2PhysicalWindow{},
	}
}
