package xform

import (
	"math"

	"orca/internal/memo"
	"orca/internal/ops"
)

// The rule types and their Name/Kind/Matches/Apply skeletons are generated
// from defs/rules.opt into rules.gen.go; this file keeps the hand-written
// match predicates and apply bodies for the aggregation rules.

// applyGbAgg2HashAgg implements grouped aggregation as a single-stage hash
// aggregate (or a scalar aggregate when there are no grouping columns).
func applyGbAgg2HashAgg(ctx *Context, ge *memo.GroupExpr) error {
	agg := ge.Op.(*ops.GbAgg)
	var op ops.Operator
	if len(agg.GroupCols) == 0 {
		op = &ops.ScalarAgg{Mode: ops.AggSingle, Aggs: agg.Aggs}
	} else {
		op = &ops.HashAgg{Mode: ops.AggSingle, GroupCols: agg.GroupCols, Aggs: agg.Aggs}
	}
	_, err := ctx.Insert(op, ge.Group().ID, ge.Children...)
	return err
}

// matchGbAgg2StreamAgg requires grouping columns: stream aggregation orders
// on them.
func matchGbAgg2StreamAgg(agg *ops.GbAgg, _ *memo.GroupExpr) bool {
	return len(agg.GroupCols) > 0
}

// applyGbAgg2StreamAgg implements grouped aggregation over sorted input.
func applyGbAgg2StreamAgg(ctx *Context, ge *memo.GroupExpr) error {
	agg := ge.Op.(*ops.GbAgg)
	op := &ops.StreamAgg{GroupCols: agg.GroupCols, Aggs: agg.Aggs}
	_, err := ctx.Insert(op, ge.Group().ID, ge.Children...)
	return err
}

// matchGbAgg2TwoStageAgg rejects DISTINCT aggregates: they cannot be split
// into partials.
func matchGbAgg2TwoStageAgg(agg *ops.GbAgg, _ *memo.GroupExpr) bool {
	for _, a := range agg.Aggs {
		if a.Agg.Distinct {
			return false
		}
	}
	return true
}

// applyGbAgg2TwoStageAgg implements the MPP two-stage aggregation: a Local
// aggregate computes partial states on segment-resident data, a motion
// (placed by the enforcement framework) repartitions the partials, and a
// Global aggregate combines them. This is the plan shape that avoids moving
// the full input across the interconnect.
func applyGbAgg2TwoStageAgg(ctx *Context, ge *memo.GroupExpr) error {
	agg := ge.Op.(*ops.GbAgg)

	localAggs := make([]ops.AggElem, len(agg.Aggs))
	globalAggs := make([]ops.AggElem, len(agg.Aggs))
	for i, a := range agg.Aggs {
		partial := ctx.ColFactory.NewComputedColumn("partial_"+a.Col.Name, a.Col.Type)
		localAggs[i] = ops.AggElem{Col: partial, Agg: a.Agg}
		combineName := a.Agg.Name
		if combineName == "count" {
			// Partial counts are summed, not re-counted.
			combineName = "sum"
		}
		globalAggs[i] = ops.AggElem{
			Col: a.Col,
			Agg: &ops.AggFunc{Name: combineName, Arg: ops.NewIdent(partial.ID, a.Col.Type)},
		}
	}

	var localOp, globalOp ops.Operator
	if len(agg.GroupCols) == 0 {
		localOp = &ops.ScalarAgg{Mode: ops.AggLocal, Aggs: localAggs}
		globalOp = &ops.ScalarAgg{Mode: ops.AggGlobal, Aggs: globalAggs}
	} else {
		localOp = &ops.HashAgg{Mode: ops.AggLocal, GroupCols: agg.GroupCols, Aggs: localAggs}
		globalOp = &ops.HashAgg{Mode: ops.AggGlobal, GroupCols: agg.GroupCols, Aggs: globalAggs}
	}

	localGE, err := ctx.Insert(localOp, -1, ge.Children...)
	if err != nil {
		return err
	}
	// Seed the local group's statistics: at most `groups` rows per segment.
	if localGE.Group().Stats() == nil {
		if childStats, err := ctx.Memo.DeriveStats(ge.Children[0], ctx.Stats); err == nil {
			gb := ctx.Stats.DeriveGroupBy(agg.GroupCols, childStats)
			rows := math.Min(childStats.Rows, gb.Rows*float64(maxInt(ctx.Segments, 1)))
			localGE.Group().SetStats(gb.WithRows(rows))
		}
	}
	_, err = ctx.Insert(globalOp, ge.Group().ID, localGE.Group().ID)
	return err
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
