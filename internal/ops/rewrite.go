package ops

// Scalar-slot rewriting: the plan cache (internal/plancache) normalizes
// expression trees modulo constants by rewriting every scalar an operator
// carries, and rebinds cached plans by rewriting them back. The visitor,
// RewriteOpScalars, is generated from defs/*.opt into ops.gen.go: every
// field of type Scalar, ScalarList, ProjElems, AggElems or WinElems is a
// slot, so fingerprinting and rebinding see exactly the slots the operator
// declarations name, and a constant cannot survive in a cached plan without
// participating in the key. This file keeps the leaf rewrite and the list
// helpers the generated visitor calls.
//
// Operators without slots (Get, Limit, UnionAll, Sort, motions, ...) carry
// no ScalarExpr parameters; their constants-by-value (Limit counts) are
// operator identity and hash into the shape fingerprint via ParamHash. No
// operator stores a value computed from a scalar slot's constant — a Scan's
// partition selection is evaluated from its Filter wherever it is read — so
// rewriting the slots rewrites everything a constant determines.

// RewriteScalarLeaves rebuilds a scalar tree with every leaf (Const, Ident,
// Param, Subquery) replaced by leaf's result; interior nodes are copied only
// when a descendant changed, so an identity rewrite returns s itself.
// Returning the argument unchanged from leaf keeps that leaf.
func RewriteScalarLeaves(s ScalarExpr, leaf func(ScalarExpr) ScalarExpr) ScalarExpr {
	if s == nil {
		return nil
	}
	switch x := s.(type) {
	case *Cmp:
		l, r := RewriteScalarLeaves(x.L, leaf), RewriteScalarLeaves(x.R, leaf)
		if l == x.L && r == x.R {
			return x
		}
		return &Cmp{Op: x.Op, L: l, R: r}
	case *BoolOp:
		args, changed := rewriteScalarSlice(x.Args, leaf)
		if !changed {
			return x
		}
		return &BoolOp{Kind: x.Kind, Args: args}
	case *BinOp:
		l, r := RewriteScalarLeaves(x.L, leaf), RewriteScalarLeaves(x.R, leaf)
		if l == x.L && r == x.R {
			return x
		}
		return &BinOp{Op: x.Op, L: l, R: r}
	case *Func:
		args, changed := rewriteScalarSlice(x.Args, leaf)
		if !changed {
			return x
		}
		return &Func{Name: x.Name, Args: args}
	case *Case:
		changed := false
		whens := make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i].When = RewriteScalarLeaves(w.When, leaf)
			whens[i].Then = RewriteScalarLeaves(w.Then, leaf)
			if whens[i].When != w.When || whens[i].Then != w.Then {
				changed = true
			}
		}
		els := RewriteScalarLeaves(x.Else, leaf)
		if !changed && els == x.Else {
			return x
		}
		return &Case{Whens: whens, Else: els}
	case *IsNull:
		arg := RewriteScalarLeaves(x.Arg, leaf)
		if arg == x.Arg {
			return x
		}
		return &IsNull{Arg: arg, Negated: x.Negated}
	case *InList:
		arg := RewriteScalarLeaves(x.Arg, leaf)
		vals, changed := rewriteScalarSlice(x.Vals, leaf)
		if arg == x.Arg && !changed {
			return x
		}
		return &InList{Arg: arg, Vals: vals, Negated: x.Negated}
	default:
		// Leaves: Ident, Const, Param — and Subquery, which the plan cache
		// treats as a leaf because its identity is by pointer (the cache
		// refuses shapes containing one rather than descending).
		return leaf(s)
	}
}

func rewriteScalarSlice(in []ScalarExpr, leaf func(ScalarExpr) ScalarExpr) ([]ScalarExpr, bool) {
	out := make([]ScalarExpr, len(in))
	changed := false
	for i, a := range in {
		out[i] = RewriteScalarLeaves(a, leaf)
		if out[i] != a {
			changed = true
		}
	}
	if !changed {
		return in, false
	}
	return out, true
}

func rewriteSlots(in []ScalarExpr, rw func(ScalarExpr) ScalarExpr) ([]ScalarExpr, bool) {
	out := make([]ScalarExpr, len(in))
	changed := false
	for i, s := range in {
		out[i] = rw(s)
		if out[i] != s {
			changed = true
		}
	}
	if !changed {
		return in, false
	}
	return out, true
}

func rewriteProjElems(in []ProjElem, rw func(ScalarExpr) ScalarExpr) ([]ProjElem, bool) {
	out := make([]ProjElem, len(in))
	changed := false
	for i, e := range in {
		out[i] = e
		out[i].Expr = rw(e.Expr)
		if out[i].Expr != e.Expr {
			changed = true
		}
	}
	if !changed {
		return in, false
	}
	return out, true
}

func rewriteAggElems(in []AggElem, rw func(ScalarExpr) ScalarExpr) ([]AggElem, bool) {
	out := make([]AggElem, len(in))
	changed := false
	for i, e := range in {
		out[i] = e
		if e.Agg != nil && e.Agg.Arg != nil {
			if arg := rw(e.Agg.Arg); arg != e.Agg.Arg {
				agg := *e.Agg
				agg.Arg = arg
				out[i].Agg = &agg
				changed = true
			}
		}
	}
	if !changed {
		return in, false
	}
	return out, true
}

func rewriteWinElems(in []WinElem, rw func(ScalarExpr) ScalarExpr) ([]WinElem, bool) {
	out := make([]WinElem, len(in))
	changed := false
	for i, e := range in {
		out[i] = e
		if e.Fn != nil && e.Fn.Arg != nil {
			if arg := rw(e.Fn.Arg); arg != e.Fn.Arg {
				fn := *e.Fn
				fn.Arg = arg
				out[i].Fn = &fn
				changed = true
			}
		}
	}
	if !changed {
		return in, false
	}
	return out, true
}
