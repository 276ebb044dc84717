// Code generated by cmd/optgen from defs/*.opt. DO NOT EDIT.

package dxl

import "orca/internal/ops"

// serializePhysParams renders each operator's identity parameters as
// structured attributes and children, one case per physical and
// enforcer operator, mirroring ParamHash: noident fields (derived or
// display-only state) are excluded.
func serializePhysParams(n *Node, op ops.Operator) {
	switch x := op.(type) {
	case *ops.ToyScan:
		n.Setf("Table", "%d", x.Rel.Mdid.OID)
	default:
		// Logical and scalar operators never appear in a finished
		// physical plan.
	}
}
