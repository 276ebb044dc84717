package xform

import (
	"orca/internal/base"
	"orca/internal/memo"
	"orca/internal/ops"
)

// The rule types and their Name/Kind/Matches/Apply skeletons are generated
// from defs/rules.opt into rules.gen.go; this file keeps the hand-written
// apply bodies for the scan, filter, projection and join implementation
// rules.

// applyGet2Scan implements a bare table access as a sequential scan — the
// paper's canonical implementation-rule example (§4.1 step 3).
func applyGet2Scan(ctx *Context, ge *memo.GroupExpr) error {
	get := ge.Op.(*ops.Get)
	rows := groupRows(ctx, ge.Group())
	scan := &ops.Scan{Alias: get.Alias, Rel: get.Rel, Cols: get.Cols, BaseRows: rows}
	_, err := ctx.Insert(scan, ge.Group().ID)
	return err
}

func groupRows(ctx *Context, g *memo.Group) float64 {
	if s, err := ctx.Memo.DeriveStats(g.ID, ctx.Stats); err == nil {
		return s.Rows
	}
	return 1000
}

// applySelect2Scan merges a Select over a Get into a filtering scan,
// choosing static partition elimination when the predicate constrains the
// partition column (paper §7.2.2 "Partition Elimination"). The scan records
// only that choice; the partitions themselves are selected from its Filter
// wherever it is read, so a rebound constant selects its own partitions.
func applySelect2Scan(ctx *Context, ge *memo.GroupExpr) error {
	sel := ge.Op.(*ops.Select)
	child := ctx.Memo.Group(ge.Children[0])
	for _, cge := range child.Exprs() {
		get, ok := cge.Op.(*ops.Get)
		if !ok {
			continue
		}
		baseRows := groupRows(ctx, child)
		scan := &ops.Scan{
			Alias:    get.Alias,
			Rel:      get.Rel,
			Cols:     get.Cols,
			Filter:   sel.Pred,
			BaseRows: baseRows,
		}
		if parts, pruned := ops.PrunePartitions(get.Rel, get.Cols, sel.Pred); pruned {
			scan.Pruned = true
			scan.BaseRows = baseRows * float64(len(parts)) / float64(len(get.Rel.Parts))
		}
		if _, err := ctx.Insert(scan, ge.Group().ID); err != nil {
			return err
		}
	}
	return nil
}

// applySelect2IndexScan implements Select(Get) through a matching index:
// the index's leading key column must be constrained by an equality or
// range conjunct. The resulting IndexScan delivers the index order natively
// — letting plans skip a Sort enforcer, the IndexScan example of paper §3.
func applySelect2IndexScan(ctx *Context, ge *memo.GroupExpr) error {
	if ctx.Accessor == nil {
		return nil
	}
	sel := ge.Op.(*ops.Select)
	child := ctx.Memo.Group(ge.Children[0])
	for _, cge := range child.Exprs() {
		get, ok := cge.Op.(*ops.Get)
		if !ok {
			continue
		}
		for _, ixID := range get.Rel.IndexIDs {
			ix, err := ctx.Accessor.Index(ixID)
			if err != nil {
				continue
			}
			if len(ix.KeyCols) == 0 || ix.KeyCols[0] >= len(get.Cols) {
				continue
			}
			keyCol := get.Cols[ix.KeyCols[0]].ID
			var keyPreds, residual []ops.ScalarExpr
			for _, c := range ops.Conjuncts(sel.Pred) {
				if cmp, ok := c.(*ops.Cmp); ok && constrainsCol(cmp, keyCol) {
					keyPreds = append(keyPreds, c)
				} else {
					residual = append(residual, c)
				}
			}
			if len(keyPreds) == 0 {
				continue
			}
			scan := &ops.IndexScan{
				Alias:    get.Alias,
				Rel:      get.Rel,
				Index:    ix,
				Cols:     get.Cols,
				EqFilter: ops.And(keyPreds...),
				Residual: ops.And(residual...),
				BaseRows: groupRows(ctx, child),
			}
			if _, err := ctx.Insert(scan, ge.Group().ID); err != nil {
				return err
			}
		}
	}
	return nil
}

func constrainsCol(cmp *ops.Cmp, col base.ColID) bool {
	l, r := cmp.L, cmp.R
	if _, ok := l.(*ops.Const); ok {
		l, r = r, l
	}
	id, lok := l.(*ops.Ident)
	_, rok := r.(*ops.Const)
	return lok && rok && id.Col == col
}

// applySelect2Filter implements Select as a Filter over any child plan.
func applySelect2Filter(ctx *Context, ge *memo.GroupExpr) error {
	sel := ge.Op.(*ops.Select)
	_, err := ctx.Insert(&ops.Filter{Pred: sel.Pred}, ge.Group().ID, ge.Children...)
	return err
}

// applyProject2ComputeScalar implements Project as ComputeScalar.
func applyProject2ComputeScalar(ctx *Context, ge *memo.GroupExpr) error {
	p := ge.Op.(*ops.Project)
	_, err := ctx.Insert(ops.NewComputeScalar(p.Elems), ge.Group().ID, ge.Children...)
	return err
}

// applyJoin2HashJoin implements a join with extractable equality keys as a
// hash join (paper: InnerJoin2HashJoin).
func applyJoin2HashJoin(ctx *Context, ge *memo.GroupExpr) error {
	j := ge.Op.(*ops.Join)
	leftCols := ctx.Memo.Group(ge.Children[0]).Logical().OutputCols
	rightCols := ctx.Memo.Group(ge.Children[1]).Logical().OutputCols
	lk, rk, residual := ops.EquiKeys(j.Pred, leftCols, rightCols)
	if len(lk) == 0 {
		return nil
	}
	hj := &ops.HashJoin{Type: j.Type, LeftKeys: lk, RightKeys: rk, Residual: ops.And(residual...)}
	_, err := ctx.Insert(hj, ge.Group().ID, ge.Children...)
	return err
}

// applyJoin2NLJoin implements any join as a nested-loops join (paper:
// InnerJoin2NLJoin); it is the only option for non-equi predicates.
func applyJoin2NLJoin(ctx *Context, ge *memo.GroupExpr) error {
	j := ge.Op.(*ops.Join)
	nl := &ops.NLJoin{Type: j.Type, Pred: j.Pred}
	_, err := ctx.Insert(nl, ge.Group().ID, ge.Children...)
	return err
}
