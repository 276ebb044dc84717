package xform

import (
	"orca/internal/base"
	"orca/internal/memo"
	"orca/internal/ops"
)

// The rule types and their Name/Kind/Matches/Apply skeletons are generated
// from defs/rules.opt into rules.gen.go; this file keeps the hand-written
// apply bodies for limit, union, CTE and window implementation rules.

// applyLimit2PhysicalLimit implements Limit.
func applyLimit2PhysicalLimit(ctx *Context, ge *memo.GroupExpr) error {
	l := ge.Op.(*ops.Limit)
	p := &ops.PhysicalLimit{Order: l.Order, Count: l.Count, Offset: l.Offset, HasCount: l.HasCount}
	_, err := ctx.Insert(p, ge.Group().ID, ge.Children...)
	return err
}

// applyUnionAll2Physical implements UnionAll.
func applyUnionAll2Physical(ctx *Context, ge *memo.GroupExpr) error {
	u := ge.Op.(*ops.UnionAll)
	p := &ops.PhysicalUnionAll{InCols: u.InCols, OutCols: u.OutCols}
	_, err := ctx.Insert(p, ge.Group().ID, ge.Children...)
	return err
}

// applyCTEAnchor2Sequence implements the CTE anchor as a Sequence over a
// CTEProducer — the paper's producer/consumer model for WITH (§7.2.2
// "Common Expressions"): the shared expression is evaluated once and its
// output consumed by every consumer.
func applyCTEAnchor2Sequence(ctx *Context, ge *memo.GroupExpr) error {
	a := ge.Op.(*ops.CTEAnchor)
	cols := make([]base.ColID, len(a.Cols))
	for i, c := range a.Cols {
		cols[i] = c.ID
	}
	producer, err := ctx.Insert(&ops.PhysicalCTEProducer{ID: a.ID, Cols: cols}, -1, ge.Children[0])
	if err != nil {
		return err
	}
	_, err = ctx.Insert(&ops.Sequence{}, ge.Group().ID, producer.Group().ID, ge.Children[1])
	return err
}

// applyCTEConsumer2Physical implements a CTE consumer leaf.
func applyCTEConsumer2Physical(ctx *Context, ge *memo.GroupExpr) error {
	c := ge.Op.(*ops.CTEConsumer)
	p := &ops.PhysicalCTEConsumer{ID: c.ID, Cols: c.Cols, ProducerCols: c.ProducerCols}
	_, err := ctx.Insert(p, ge.Group().ID)
	return err
}

// applyWindow2PhysicalWindow implements window functions.
func applyWindow2PhysicalWindow(ctx *Context, ge *memo.GroupExpr) error {
	w := ge.Op.(*ops.Window)
	p := &ops.PhysicalWindow{PartitionCols: w.PartitionCols, Order: w.Order, Wins: w.Wins}
	_, err := ctx.Insert(p, ge.Group().ID, ge.Children...)
	return err
}
