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
	c.logical(0, &ops.Toy{Rel: c.sampleRelation(), Cols: c.sampleColRefs(), Hint: c.sampleString()})
	c.physical(false, func() ops.Operator { return &ops.ToyScan{Rel: c.sampleRelation(), Rows: c.sampleFloat()} })
	c.logical(1, &ops.ToySelect{Pred: c.sampleScalar()})
}
