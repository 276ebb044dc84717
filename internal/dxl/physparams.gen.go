// Code generated by cmd/optgen from defs/*.opt. DO NOT EDIT.

package dxl

import "orca/internal/ops"

// serializePhysParams renders each operator's identity parameters as
// structured attributes and children, one case per physical and
// enforcer operator, mirroring ParamHash: noident fields (derived or
// display-only state) are excluded.
func serializePhysParams(n *Node, op ops.Operator) {
	switch x := op.(type) {
	case *ops.Sort:
		n.Add(serializeOrder("SortOrder", x.Order))
	case *ops.GatherMerge:
		n.Add(serializeOrder("MergeOrder", x.Order))
	case *ops.Redistribute:
		n.Set("HashCols", colIDList(x.Cols))
	case *ops.Scan:
		n.Setf("RelOid", "%d", x.Rel.Mdid.OID)
		n.Add(serializeColRefs("ScanCols", x.Cols))
		if x.Filter != nil {
			n.Add(El("ScanFilter").Add(SerializeScalar(x.Filter)))
		}
		if x.Pruned {
			n.Set("Pruned", "true")
		}
		if len(x.Parts) > 0 {
			n.Set("Parts", intList(x.Parts))
		}
	case *ops.IndexScan:
		n.Setf("RelOid", "%d", x.Rel.Mdid.OID)
		n.Setf("IndexOid", "%d", x.Index.Mdid.OID).Set("Index", x.Index.Name)
		n.Add(serializeColRefs("ScanCols", x.Cols))
		if x.EqFilter != nil {
			n.Add(El("IndexCond").Add(SerializeScalar(x.EqFilter)))
		}
		if x.Residual != nil {
			n.Add(El("Residual").Add(SerializeScalar(x.Residual)))
		}
	case *ops.Filter:
		if x.Pred != nil {
			n.Add(El("Pred").Add(SerializeScalar(x.Pred)))
		}
	case *ops.ComputeScalar:
		for _, e := range x.Elems {
			n.Add(serializeProjElem(e))
		}
	case *ops.HashJoin:
		n.Set("JoinType", x.Type.String())
		n.Set("LeftKeys", colIDList(x.LeftKeys))
		n.Set("RightKeys", colIDList(x.RightKeys))
		if x.Residual != nil {
			n.Add(El("Residual").Add(SerializeScalar(x.Residual)))
		}
	case *ops.NLJoin:
		n.Set("JoinType", x.Type.String())
		if x.Pred != nil {
			n.Add(El("JoinPred").Add(SerializeScalar(x.Pred)))
		}
	case *ops.HashAgg:
		n.Set("Mode", x.Mode.String())
		n.Set("GroupCols", colIDList(x.GroupCols))
		for _, a := range x.Aggs {
			n.Add(serializeAggElem(a))
		}
	case *ops.StreamAgg:
		n.Set("GroupCols", colIDList(x.GroupCols))
		for _, a := range x.Aggs {
			n.Add(serializeAggElem(a))
		}
	case *ops.ScalarAgg:
		n.Set("Mode", x.Mode.String())
		for _, a := range x.Aggs {
			n.Add(serializeAggElem(a))
		}
	case *ops.PhysicalLimit:
		n.Add(serializeOrder("LimitOrder", x.Order))
		n.Setf("Count", "%d", x.Count)
		n.Setf("Offset", "%d", x.Offset)
		if x.HasCount {
			n.Set("HasCount", "true")
		}
	case *ops.PhysicalUnionAll:
		for _, cols := range x.InCols {
			n.Add(El("InputCols").Set("Cols", colIDList(cols)))
		}
		n.Add(serializeColRefs("OutputCols", x.OutCols))
	case *ops.PhysicalCTEProducer:
		n.Setf("CteId", "%d", x.ID)
		n.Set("Cols", colIDList(x.Cols))
	case *ops.PhysicalCTEConsumer:
		n.Setf("CteId", "%d", x.ID)
		n.Add(serializeColRefs("ConsumerCols", x.Cols))
		n.Set("ProducerCols", colIDList(x.ProducerCols))
	case *ops.PhysicalWindow:
		n.Set("PartitionCols", colIDList(x.PartitionCols))
		n.Add(serializeOrder("WindowOrder", x.Order))
		for _, w := range x.Wins {
			n.Add(serializeWinElem(w))
		}
	case *ops.SubPlanFilter:
		n.Set("Kind", x.Kind.String())
		n.Setf("SubCol", "%d", x.SubCol)
		if x.Test != nil {
			n.Add(El("Test").Add(SerializeScalar(x.Test)))
		}
	case *ops.SubPlanProject:
		n.Setf("SubCol", "%d", x.SubCol)
		n.Setf("OutCol", "%d", x.OutCol)
	case *ops.Gather, *ops.Broadcast, *ops.Spool, *ops.Sequence:
		// No parameters beyond the delivered properties already on
		// the node.
	default:
		// Logical and scalar operators never appear in a finished
		// physical plan.
	}
}
