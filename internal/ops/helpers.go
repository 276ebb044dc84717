package ops

import (
	"orca/internal/base"
)

// OutputColsOf computes the output column set of a logical expression tree.
func OutputColsOf(e *Expr) base.ColSet {
	childOuts := make([]base.ColSet, len(e.Children))
	for i, c := range e.Children {
		childOuts[i] = OutputColsOf(c)
	}
	return OutputColsOp(e.Op, childOuts)
}

// OutputColsOp computes the output columns of an operator given its
// children's output columns. It covers both logical and physical operators;
// enforcers and filters are pass-through.
func OutputColsOp(op Operator, childOuts []base.ColSet) base.ColSet {
	switch o := op.(type) {
	case *Get:
		return o.OutputCols()
	case *Project:
		return o.OutputCols()
	case *GbAgg:
		return o.OutputCols()
	case *UnionAll:
		return o.OutputCols()
	case *CTEConsumer:
		return o.OutputCols()
	case *Join:
		switch o.Type {
		case SemiJoin, AntiJoin:
			return childOuts[0]
		default:
			return childOuts[0].Union(childOuts[1])
		}
	case *NAryJoin:
		var s base.ColSet
		for _, c := range childOuts {
			s = s.Union(c)
		}
		return s
	case *CTEAnchor:
		return childOuts[1]
	case *Window:
		s := childOuts[0]
		for _, e := range o.Wins {
			s = s.Union(base.MakeColSet(e.Col.ID))
		}
		return s
	case *Scan:
		return o.OutputCols()
	case *IndexScan:
		return o.OutputCols()
	case *ComputeScalar:
		return o.OutputCols()
	case *HashAgg:
		return o.OutputCols()
	case *StreamAgg:
		return o.OutputCols()
	case *ScalarAgg:
		return o.OutputCols()
	case *HashJoin:
		switch o.Type {
		case SemiJoin, AntiJoin:
			return childOuts[0]
		default:
			return childOuts[0].Union(childOuts[1])
		}
	case *NLJoin:
		switch o.Type {
		case SemiJoin, AntiJoin:
			return childOuts[0]
		default:
			return childOuts[0].Union(childOuts[1])
		}
	case *PhysicalUnionAll:
		return o.OutputCols()
	case *PhysicalCTEConsumer:
		return o.OutputCols()
	case *Sequence:
		return childOuts[len(childOuts)-1]
	case *PhysicalWindow:
		s := childOuts[0]
		for _, e := range o.Wins {
			s = s.Union(base.MakeColSet(e.Col.ID))
		}
		return s
	case *SubPlanFilter:
		return childOuts[0]
	case *SubPlanProject:
		s := childOuts[0]
		s.Add(o.OutCol)
		return s
	default:
		// Filters, limits, sorts, motions, spools: pass-through.
		if len(childOuts) > 0 {
			return childOuts[0]
		}
		return base.ColSet{}
	}
}

// usedColsOp returns the columns an operator's own parameters reference
// (subquery parameters contribute their free columns).
func usedColsOp(op Operator) base.ColSet {
	switch o := op.(type) {
	case *Select:
		return o.Pred.Cols()
	case *Project:
		return o.UsedCols()
	case *Join:
		if o.Pred != nil {
			return o.Pred.Cols()
		}
	case *NAryJoin:
		var s base.ColSet
		for _, p := range o.Preds {
			s = s.Union(p.Cols())
		}
		return s
	case *GbAgg:
		return o.UsedCols()
	case *Limit:
		return o.Order.Cols()
	case *Window:
		return o.UsedCols()
	case *Filter:
		return o.Pred.Cols()
	case *ComputeScalar:
		return o.UsedCols()
	case *HashJoin:
		var s base.ColSet
		if o.Residual != nil {
			s = o.Residual.Cols()
		}
		s = s.Union(base.MakeColSet(o.LeftKeys...)).Union(base.MakeColSet(o.RightKeys...))
		return s
	case *NLJoin:
		if o.Pred != nil {
			return o.Pred.Cols()
		}
	case *HashAgg:
		return o.UsedCols()
	case *StreamAgg:
		return o.UsedCols()
	case *ScalarAgg:
		return o.UsedCols()
	case *PhysicalWindow:
		var s base.ColSet
		s = s.Union(base.MakeColSet(o.PartitionCols...)).Union(o.Order.Cols())
		for _, e := range o.Wins {
			s = s.Union(e.Fn.Cols())
		}
		return s
	case *SubPlanFilter:
		var s base.ColSet
		if o.Test != nil {
			s = o.Test.Cols()
		}
		return s.Union(FreeCols(o.Plan))
	case *SubPlanProject:
		return FreeCols(o.Plan)
	}
	return base.ColSet{}
}

// FreeCols computes the free (outer-reference) columns of an expression
// tree: columns referenced anywhere below but produced nowhere below. A
// non-empty result marks a correlated subtree.
func FreeCols(e *Expr) base.ColSet {
	out, free := outAndFree(e)
	_ = out
	return free
}

func outAndFree(e *Expr) (out, free base.ColSet) {
	var childOuts []base.ColSet
	var allChildOut base.ColSet
	for _, c := range e.Children {
		co, cf := outAndFree(c)
		childOuts = append(childOuts, co)
		allChildOut = allChildOut.Union(co)
		free = free.Union(cf)
	}
	free = free.Union(usedColsOp(e.Op))
	out = OutputColsOp(e.Op, childOuts)
	free = free.Difference(allChildOut).Difference(out)
	return out, free
}

// Conjuncts splits a predicate into its top-level AND terms; a nil predicate
// yields nil.
func Conjuncts(pred ScalarExpr) []ScalarExpr {
	return appendConjuncts(nil, pred)
}

// appendConjuncts flattens into one output slice, so a flat AND — the shape
// the join rules split over and over — costs a single allocation.
func appendConjuncts(out []ScalarExpr, pred ScalarExpr) []ScalarExpr {
	if pred == nil {
		return out
	}
	b, ok := pred.(*BoolOp)
	if !ok || b.Kind != BoolAnd {
		return append(out, pred)
	}
	if out == nil && len(b.Args) > 0 {
		out = make([]ScalarExpr, 0, len(b.Args))
	}
	for _, a := range b.Args {
		out = appendConjuncts(out, a)
	}
	return out
}

// EquiKeys extracts hash-joinable column pairs from a join predicate given
// the output columns of the two sides: conjuncts of the form
// leftcol = rightcol (either operand order). It returns the key columns and
// the residual (non-equi) conjuncts.
func EquiKeys(pred ScalarExpr, leftOut, rightOut base.ColSet) (leftKeys, rightKeys []base.ColID, residual []ScalarExpr) {
	for _, c := range Conjuncts(pred) {
		cmp, ok := c.(*Cmp)
		if !ok || cmp.Op != CmpEq {
			residual = append(residual, c)
			continue
		}
		li, lok := cmp.L.(*Ident)
		ri, rok := cmp.R.(*Ident)
		if !lok || !rok {
			residual = append(residual, c)
			continue
		}
		switch {
		case leftOut.Contains(li.Col) && rightOut.Contains(ri.Col):
			leftKeys = append(leftKeys, li.Col)
			rightKeys = append(rightKeys, ri.Col)
		case leftOut.Contains(ri.Col) && rightOut.Contains(li.Col):
			leftKeys = append(leftKeys, ri.Col)
			rightKeys = append(rightKeys, li.Col)
		default:
			residual = append(residual, c)
		}
	}
	return leftKeys, rightKeys, residual
}

// ReplaceCols rewrites every column reference in a scalar expression
// according to the mapping, returning a new expression. Columns absent from
// the mapping are kept. Subquery inputs are not rewritten (their columns are
// scoped separately).
func ReplaceCols(e ScalarExpr, mapping map[base.ColID]base.ColID) ScalarExpr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Ident:
		if to, ok := mapping[x.Col]; ok {
			return &Ident{Col: to, Type: x.Type}
		}
		return x
	case *Const:
		return x
	case *Cmp:
		return &Cmp{Op: x.Op, L: ReplaceCols(x.L, mapping), R: ReplaceCols(x.R, mapping)}
	case *BoolOp:
		args := make([]ScalarExpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = ReplaceCols(a, mapping)
		}
		return &BoolOp{Kind: x.Kind, Args: args}
	case *BinOp:
		return &BinOp{Op: x.Op, L: ReplaceCols(x.L, mapping), R: ReplaceCols(x.R, mapping)}
	case *Func:
		args := make([]ScalarExpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = ReplaceCols(a, mapping)
		}
		return &Func{Name: x.Name, Args: args}
	case *Case:
		whens := make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = CaseWhen{When: ReplaceCols(w.When, mapping), Then: ReplaceCols(w.Then, mapping)}
		}
		return &Case{Whens: whens, Else: ReplaceCols(x.Else, mapping)}
	case *IsNull:
		return &IsNull{Arg: ReplaceCols(x.Arg, mapping), Negated: x.Negated}
	case *InList:
		vals := make([]ScalarExpr, len(x.Vals))
		for i, v := range x.Vals {
			vals[i] = ReplaceCols(v, mapping)
		}
		return &InList{Arg: ReplaceCols(x.Arg, mapping), Vals: vals, Negated: x.Negated}
	default:
		return e
	}
}
