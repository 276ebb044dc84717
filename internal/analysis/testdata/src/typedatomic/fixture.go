// Package typedatomic seeds plain accesses to an atomically updated field:
// with the field declared as a typed sync/atomic value, each one is a type
// error.
package typedatomic

import "sync/atomic"

type counter struct {
	n atomic.Int64
}

func (c *counter) okIncr() int64 { return c.n.Add(1) }

func (c *counter) badReads() int64 {
	c.n++             // want `invalid operation`
	var v int64 = c.n // want `cannot use c\.n`
	return v + c.n    // want `mismatched types`
}
