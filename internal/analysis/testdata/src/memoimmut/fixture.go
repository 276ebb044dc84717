// Package memoimmutfix seeds violations and legal near-misses for the
// publish analyzer's Memo publication sites: memo structures outside
// internal/memo, and child slices handed to Memo.InsertExpr.
package memoimmutfix

import (
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/props"
)

func badFieldWrites(ge *memo.GroupExpr, g *memo.Group) {
	ge.Op = nil        // want `write to memo\.GroupExpr\.Op outside internal/memo`
	ge.Children = nil  // want `write to memo\.GroupExpr\.Children outside internal/memo`
	ge.Children[0] = 7 // want `write to memo\.GroupExpr\.Children outside internal/memo`
	g.ID++             // want `write to memo\.Group\.ID outside internal/memo`
}

// OptContext carries the best-so-far plan and the per-epoch completion
// markers; rebinding its request or group would detach the accumulated best
// plan from its goal.
func badCtxWrites(c *memo.OptContext) {
	c.Group = nil            // want `write to memo\.OptContext\.Group outside internal/memo`
	c.Req = props.Required{} // want `write to memo\.OptContext\.Req outside internal/memo`
}

func okCtxReads(c *memo.OptContext) (float64, bool) {
	_ = c.Group // reading OptContext fields is fine
	_ = c.Req
	_, _, ok := c.Best()
	return c.BestCost(), ok
}

// fakeExpr has the same field names as memo.GroupExpr; writes to it are legal.
type fakeExpr struct {
	Op       ops.Operator
	Children []memo.GroupID
}

func okFieldAccess(f *fakeExpr, ge *memo.GroupExpr) {
	f.Op = ge.Op             // reading memo fields is fine
	f.Children = ge.Children // writing our own struct is fine
	if len(ge.Children) > 0 {
		_ = ge.Children[0]
	}
}

func badRetention(m *memo.Memo, children []memo.GroupID) {
	if _, err := m.InsertExpr(&ops.Get{}, children, -1); err != nil {
		return
	}
	children[0] = 1                // want `children is written after it escaped through Memo\.InsertExpr, which retains it`
	children = append(children, 2) // want `append to children after it escaped through Memo\.InsertExpr`
	_ = children
}

func okRetention(m *memo.Memo, children []memo.GroupID) {
	children[0] = 1 // mutation before the hand-off is fine
	cp := append([]memo.GroupID(nil), children...)
	if _, err := m.InsertExpr(&ops.Get{}, cp, -1); err != nil {
		return
	}
	children[1] = 2 // a different slice than the one handed off
}
