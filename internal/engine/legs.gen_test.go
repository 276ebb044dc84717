// Code generated by cmd/optgen from defs/*.opt. DO NOT EDIT.

package engine

import (
	"testing"

	"orca/internal/ops"
)

// TestOperatorLegs takes every operator declared in defs/*.opt through
// the legs of its kind that a compile does not already prove.
func TestOperatorLegs(t *testing.T) {
	c := newLegsFixture(t)
	c.physical(false, func() ops.Operator { return &ops.Sort{Order: c.sampleOrderSpec()} })
	c.physical(false, func() ops.Operator { return &ops.Gather{} })
	c.physical(false, func() ops.Operator { return &ops.GatherMerge{Order: c.sampleOrderSpec()} })
	c.physical(false, func() ops.Operator { return &ops.Redistribute{Cols: c.sampleColIDs()} })
	c.physical(false, func() ops.Operator { return &ops.Broadcast{} })
	c.physical(false, func() ops.Operator { return &ops.Spool{} })
	c.logical(0, &ops.Get{Alias: c.sampleString(), Rel: c.sampleRelation(), Cols: c.sampleColRefs()})
	c.logical(1, &ops.Select{Pred: c.sampleScalar()})
	c.logical(1, &ops.Project{Elems: c.sampleProjElems()})
	c.logical(2, &ops.Join{Type: c.sampleJoinType(), Pred: c.sampleScalar()})
	c.logical(-1, &ops.NAryJoin{Preds: c.sampleScalarList()})
	c.logical(1, &ops.GbAgg{GroupCols: c.sampleColIDs(), Aggs: c.sampleAggElems()})
	c.logical(1, &ops.Limit{Order: c.sampleOrderSpec(), Count: c.sampleInt64(), Offset: c.sampleInt64(), HasCount: c.sampleBool()})
	c.logical(-1, &ops.UnionAll{InCols: c.sampleColIDLists(), OutCols: c.sampleColRefs()})
	c.logical(2, &ops.CTEAnchor{ID: c.sampleInt(), Cols: c.sampleColRefs()})
	c.logical(0, &ops.CTEConsumer{ID: c.sampleInt(), Cols: c.sampleColRefs(), ProducerCols: c.sampleColIDs()})
	c.logical(1, &ops.Window{PartitionCols: c.sampleColIDs(), Order: c.sampleOrderSpec(), Wins: c.sampleWinElems()})
	c.physical(false, func() ops.Operator {
		return &ops.Scan{Alias: c.sampleString(), Rel: c.sampleRelation(), Cols: c.sampleColRefs(), Filter: c.sampleScalar(), Pruned: c.sampleBool(), Parts: c.sampleIntList(), BaseRows: c.sampleFloat()}
	})
	c.physical(false, func() ops.Operator {
		return &ops.IndexScan{Alias: c.sampleString(), Rel: c.sampleRelation(), Index: c.sampleIndex(), Cols: c.sampleColRefs(), EqFilter: c.sampleScalar(), Residual: c.sampleScalar(), BaseRows: c.sampleFloat()}
	})
	c.physical(false, func() ops.Operator { return &ops.Filter{Pred: c.sampleScalar()} })
	c.physical(false, func() ops.Operator {
		return &ops.ComputeScalar{Elems: c.sampleProjElems(), PassMap: c.sampleColIDMap()}
	})
	c.physical(false, func() ops.Operator {
		return &ops.HashJoin{Type: c.sampleJoinType(), LeftKeys: c.sampleColIDs(), RightKeys: c.sampleColIDs(), Residual: c.sampleScalar()}
	})
	c.physical(false, func() ops.Operator { return &ops.NLJoin{Type: c.sampleJoinType(), Pred: c.sampleScalar()} })
	c.physical(false, func() ops.Operator {
		return &ops.HashAgg{Mode: c.sampleAggMode(), GroupCols: c.sampleColIDs(), Aggs: c.sampleAggElems()}
	})
	c.physical(false, func() ops.Operator { return &ops.StreamAgg{GroupCols: c.sampleColIDs(), Aggs: c.sampleAggElems()} })
	c.physical(false, func() ops.Operator { return &ops.ScalarAgg{Mode: c.sampleAggMode(), Aggs: c.sampleAggElems()} })
	c.physical(false, func() ops.Operator {
		return &ops.PhysicalLimit{Order: c.sampleOrderSpec(), Count: c.sampleInt64(), Offset: c.sampleInt64(), HasCount: c.sampleBool()}
	})
	c.physical(false, func() ops.Operator {
		return &ops.PhysicalUnionAll{InCols: c.sampleColIDLists(), OutCols: c.sampleColRefs()}
	})
	c.physical(false, func() ops.Operator { return &ops.Sequence{} })
	c.physical(false, func() ops.Operator { return &ops.PhysicalCTEProducer{ID: c.sampleInt(), Cols: c.sampleColIDs()} })
	c.physical(false, func() ops.Operator {
		return &ops.PhysicalCTEConsumer{ID: c.sampleInt(), Cols: c.sampleColRefs(), ProducerCols: c.sampleColIDs()}
	})
	c.physical(false, func() ops.Operator {
		return &ops.PhysicalWindow{PartitionCols: c.sampleColIDs(), Order: c.sampleOrderSpec(), Wins: c.sampleWinElems()}
	})
	c.physical(true, func() ops.Operator {
		return &ops.SubPlanFilter{Kind: c.sampleSubqueryKind(), Plan: c.samplePlanExpr(), SubCol: c.sampleColID(), Test: c.sampleScalar()}
	})
	c.physical(true, func() ops.Operator {
		return &ops.SubPlanProject{Plan: c.samplePlanExpr(), SubCol: c.sampleColID(), OutCol: c.sampleColID()}
	})
	c.scalar(c.sampleIdent(), true)
	c.scalar(c.sampleConst(), true)
	c.scalar(c.sampleParam(), true)
	c.scalar(c.sampleCmp(), true)
	c.scalar(c.sampleBoolOp(), true)
	c.scalar(c.sampleBinOp(), true)
	c.scalar(c.sampleFunc(), true)
	c.scalar(c.sampleCase(), true)
	c.scalar(c.sampleIsNull(), true)
	c.scalar(c.sampleInList(), true)
	c.scalar(c.sampleSubquery(), false)
}
