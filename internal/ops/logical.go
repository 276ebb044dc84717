package ops

import (
	"fmt"
	"strings"

	"orca/internal/base"
	"orca/internal/md"
)

// The logical operator structs and their Name/Arity/ParamHash/ParamEqual
// methods are generated from defs/ops_logical.opt into ops.gen.go; this
// file keeps the hand-written semantic halves: output/used column
// derivation, enum types, element structs and Describe renderings.

// logicalBase provides the Logical marker.
type logicalBase struct{}

func (logicalBase) logical() {}

// ---------------------------------------------------------------------------
// Get

// OutputCols returns the columns the instance produces.
func (g *Get) OutputCols() base.ColSet {
	var s base.ColSet
	for _, c := range g.Cols {
		s.Add(c.ID)
	}
	return s
}

// ColID returns the ColID of the relation column at the given ordinal.
func (g *Get) ColID(ordinal int) base.ColID { return g.Cols[ordinal].ID }

// DistCols returns the ColIDs of the relation's hash-distribution columns.
func (g *Get) DistCols() []base.ColID {
	out := make([]base.ColID, len(g.Rel.DistCols))
	for i, ord := range g.Rel.DistCols {
		out[i] = g.Cols[ord].ID
	}
	return out
}

// Describe renders "Get(t1 as a)".
func (g *Get) Describe() string {
	if g.Alias != "" && g.Alias != g.Rel.Name {
		return fmt.Sprintf("Get(%s as %s)", g.Rel.Name, g.Alias)
	}
	return fmt.Sprintf("Get(%s)", g.Rel.Name)
}

// ---------------------------------------------------------------------------
// Select

// Describe renders the predicate.
func (s *Select) Describe() string { return "Select " + s.Pred.String() }

// ---------------------------------------------------------------------------
// Project

// ProjElem is one projected column: a target column reference and the
// defining expression. Pass-through columns are ProjElems whose Expr is an
// Ident of the same column.
type ProjElem struct {
	Col  *md.ColRef
	Expr ScalarExpr
}

// OutputCols returns the projected column set.
func (p *Project) OutputCols() base.ColSet {
	var s base.ColSet
	for _, e := range p.Elems {
		s.Add(e.Col.ID)
	}
	return s
}

// UsedCols returns the columns the projections reference.
func (p *Project) UsedCols() base.ColSet {
	var s base.ColSet
	for _, e := range p.Elems {
		s = s.Union(e.Expr.Cols())
	}
	return s
}

// Describe renders the projection list.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Elems))
	for i, e := range p.Elems {
		parts[i] = fmt.Sprintf("c%d=%s", e.Col.ID, e.Expr)
	}
	return "Project [" + strings.Join(parts, ", ") + "]"
}

// ---------------------------------------------------------------------------
// Joins

// JoinType enumerates join semantics.
type JoinType uint8

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
	SemiJoin
	AntiJoin
)

// String names the join type.
func (t JoinType) String() string {
	switch t {
	case InnerJoin:
		return "Inner"
	case LeftJoin:
		return "Left"
	case SemiJoin:
		return "Semi"
	case AntiJoin:
		return "Anti"
	default:
		return invalidEnum("JoinType", int(t))
	}
}

// invalidEnum renders an enum value that has no name, as "Type(n)".
func invalidEnum(typ string, v int) string {
	return fmt.Sprintf("%s(%d)", typ, v)
}

// Name implements Operator; the display name carries the join semantics.
func (j *Join) Name() string { return j.Type.String() + "Join" }

// Describe renders "InnerJoin (c0 = c3)".
func (j *Join) Describe() string {
	if j.Pred == nil {
		return j.Name()
	}
	return j.Name() + " " + j.Pred.String()
}

// Describe renders the predicate list.
func (j *NAryJoin) Describe() string {
	parts := make([]string, len(j.Preds))
	for i, p := range j.Preds {
		parts[i] = p.String()
	}
	return "NAryJoin [" + strings.Join(parts, " AND ") + "]"
}

// ---------------------------------------------------------------------------
// Grouping and aggregation

// AggElem is one computed aggregate: target column plus aggregate function.
type AggElem struct {
	Col *md.ColRef
	Agg *AggFunc
}

// OutputCols returns group columns plus aggregate output columns.
func (g *GbAgg) OutputCols() base.ColSet {
	return aggOutputCols(g.GroupCols, g.Aggs)
}

// UsedCols returns the columns referenced by grouping and aggregation.
func (g *GbAgg) UsedCols() base.ColSet {
	return aggUsedCols(g.GroupCols, g.Aggs)
}

// Describe renders grouping columns and aggregates.
func (g *GbAgg) Describe() string {
	parts := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		parts[i] = fmt.Sprintf("c%d=%s", a.Col.ID, a.Agg)
	}
	return fmt.Sprintf("GbAgg group=%v aggs=[%s]", g.GroupCols, strings.Join(parts, ", "))
}

// ---------------------------------------------------------------------------
// Limit

// Describe renders count/offset/order.
func (l *Limit) Describe() string {
	return fmt.Sprintf("Limit %d offset %d order %s", l.Count, l.Offset, l.Order)
}

// ---------------------------------------------------------------------------
// UnionAll

// OutputCols returns the union's output column set.
func (u *UnionAll) OutputCols() base.ColSet {
	var s base.ColSet
	for _, c := range u.OutCols {
		s.Add(c.ID)
	}
	return s
}

// ---------------------------------------------------------------------------
// Common table expressions (paper §7.2.2 "Common Expressions": a
// producer/consumer model for WITH clause)

// Describe renders the CTE id.
func (c *CTEAnchor) Describe() string { return fmt.Sprintf("CTEAnchor(%d)", c.ID) }

// OutputCols returns the consumer's output columns.
func (c *CTEConsumer) OutputCols() base.ColSet {
	var s base.ColSet
	for _, cr := range c.Cols {
		s.Add(cr.ID)
	}
	return s
}

// Describe renders the CTE id.
func (c *CTEConsumer) Describe() string { return fmt.Sprintf("CTEConsumer(%d)", c.ID) }

// ---------------------------------------------------------------------------
// Window

// WinElem is one computed window function column.
type WinElem struct {
	Col *md.ColRef
	Fn  *WinFunc
}

// UsedCols returns columns referenced by partitioning, ordering and args.
func (w *Window) UsedCols() base.ColSet {
	s := base.MakeColSet(w.PartitionCols...)
	s = s.Union(w.Order.Cols())
	for _, e := range w.Wins {
		s = s.Union(e.Fn.Cols())
	}
	return s
}

// Describe renders partition and functions.
func (w *Window) Describe() string {
	parts := make([]string, len(w.Wins))
	for i, e := range w.Wins {
		parts[i] = fmt.Sprintf("c%d=%s", e.Col.ID, e.Fn)
	}
	return fmt.Sprintf("Window part=%v order=%s fns=[%s]", w.PartitionCols, w.Order, strings.Join(parts, ", "))
}
