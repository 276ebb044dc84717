package engine

import (
	"fmt"
	"sort"
	"strings"

	"orca/internal/base"
	"orca/internal/ops"
	"orca/internal/props"
)

// ---------------------------------------------------------------------------
// Filter / ComputeScalar

func (ex *executor) execFilter(op *ops.Filter, e *ops.Expr) (*result, error) {
	in, err := ex.exec(e.Children[0])
	if err != nil {
		return nil, err
	}
	out := &result{schema: in.schema, parts: make([][]Row, len(in.parts)), rep: in.rep}
	ectx := &evalCtx{sch: in.sch(), bindings: ex.bindings}
	for s, rows := range in.parts {
		if err := ex.charge(len(rows)); err != nil {
			return nil, err
		}
		for _, r := range rows {
			keep, err := ectx.truthy(op.Pred, r)
			if err != nil {
				return nil, err
			}
			if keep {
				out.parts[s] = append(out.parts[s], r)
			}
		}
	}
	return out, nil
}

func (ex *executor) execComputeScalar(op *ops.ComputeScalar, e *ops.Expr) (*result, error) {
	in, err := ex.exec(e.Children[0])
	if err != nil {
		return nil, err
	}
	sch := make([]base.ColID, len(op.Elems))
	for i, e := range op.Elems {
		sch[i] = e.Col.ID
	}
	out := &result{schema: sch, parts: make([][]Row, len(in.parts)), rep: in.rep}
	ectx := &evalCtx{sch: in.sch(), bindings: ex.bindings}
	for s, rows := range in.parts {
		if err := ex.charge(len(rows)); err != nil {
			return nil, err
		}
		for _, r := range rows {
			nr := make(Row, len(op.Elems))
			for i, e := range op.Elems {
				v, err := ectx.eval(e.Expr, r)
				if err != nil {
					return nil, err
				}
				nr[i] = v
			}
			out.parts[s] = append(out.parts[s], nr)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Joins

func keyString(r Row, idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		b.WriteString(r[i].String())
		b.WriteByte('|')
	}
	return b.String()
}

func colPositions(sch schema, cols []base.ColID) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		p, ok := sch[c]
		if !ok {
			return nil, fmt.Errorf("engine: column c%d not in input schema", c)
		}
		out[i] = p
	}
	return out, nil
}

func (ex *executor) execHashJoin(op *ops.HashJoin, e *ops.Expr) (*result, error) {
	outer, err := ex.exec(e.Children[0])
	if err != nil {
		return nil, err
	}
	inner, err := ex.exec(e.Children[1])
	if err != nil {
		return nil, err
	}
	// A replicated side joins against the other side's local partitions; if
	// both are replicated the output is replicated.
	rep := outer.rep && inner.rep
	outSchema := append(append([]base.ColID(nil), outer.schema...), inner.schema...)
	if op.Type == ops.SemiJoin || op.Type == ops.AntiJoin {
		outSchema = outer.schema
	}
	out := &result{schema: outSchema, parts: make([][]Row, len(outer.parts)), rep: rep}

	oPos, err := colPositions(outer.sch(), op.LeftKeys)
	if err != nil {
		return nil, err
	}
	iPos, err := colPositions(inner.sch(), op.RightKeys)
	if err != nil {
		return nil, err
	}
	residualCtx := &evalCtx{sch: schemaOf(append(append([]base.ColID(nil), outer.schema...), inner.schema...)), bindings: ex.bindings}
	// The residual reads each pair from one scratch row; emitted rows copy it.
	joined := make(Row, len(outer.schema)+len(inner.schema))

	segs := len(outer.parts)
	for s := 0; s < segs; s++ {
		if rep && s > 0 {
			break
		}
		oRows := outer.parts[s]
		iRows := inner.parts[s]
		if outer.rep && !inner.rep {
			oRows = outer.parts[s] // full copy joins local inner partition
		}
		// Build on the inner side.
		if err := ex.charge(len(iRows)); err != nil {
			return nil, err
		}
		if ex.opts.MemLimitRows > 0 && len(iRows) > ex.opts.MemLimitRows {
			return nil, ErrOOM
		}
		if len(iRows) > ex.stats.MaxHashMem {
			ex.stats.MaxHashMem = len(iRows)
		}
		ht := make(map[string][]Row, len(iRows))
		for _, ir := range iRows {
			k := keyString(ir, iPos)
			ht[k] = append(ht[k], ir)
		}
		// Probe with the outer side.
		if err := ex.charge(len(oRows)); err != nil {
			return nil, err
		}
		for _, or := range oRows {
			k := keyString(or, oPos)
			matches := ht[k]
			matched := false
			copy(joined, or)
			for _, ir := range matches {
				if hasNullKey(or, oPos) {
					break // SQL equality never matches NULL keys
				}
				copy(joined[len(or):], ir)
				ok, err := residualCtx.truthy(op.Residual, joined)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				matched = true
				if err := ex.charge(1); err != nil {
					return nil, err
				}
				switch op.Type {
				case ops.InnerJoin, ops.LeftJoin:
					out.parts[s] = append(out.parts[s], append(Row(nil), joined...))
				case ops.SemiJoin:
					out.parts[s] = append(out.parts[s], or)
				case ops.AntiJoin:
					// Matched outer rows are excluded; see the unmatched
					// handling below.
				}
				if op.Type == ops.SemiJoin {
					break
				}
			}
			switch op.Type {
			case ops.LeftJoin:
				if !matched {
					out.parts[s] = append(out.parts[s], padRight(or, len(inner.schema)))
				}
			case ops.AntiJoin:
				if !matched {
					out.parts[s] = append(out.parts[s], or)
				}
			case ops.InnerJoin, ops.SemiJoin:
				// Emit-on-match only; nothing to do for unmatched rows.
			}
		}
	}
	fillReplicated(out)
	return out, nil
}

// fillReplicated copies segment 0's rows to every segment of a replicated
// result so per-segment consumers observe the full copy everywhere.
func fillReplicated(r *result) {
	if !r.rep {
		return
	}
	for s := 1; s < len(r.parts); s++ {
		r.parts[s] = r.parts[0]
	}
}

func hasNullKey(r Row, pos []int) bool {
	for _, p := range pos {
		if r[p].IsNull() {
			return true
		}
	}
	return false
}

func padRight(r Row, n int) Row {
	out := append(append(Row{}, r...), make(Row, n)...)
	for i := len(r); i < len(out); i++ {
		out[i] = base.Null
	}
	return out
}

func (ex *executor) execNLJoin(op *ops.NLJoin, e *ops.Expr) (*result, error) {
	outer, err := ex.exec(e.Children[0])
	if err != nil {
		return nil, err
	}
	inner, err := ex.exec(e.Children[1])
	if err != nil {
		return nil, err
	}
	rep := outer.rep && inner.rep
	outSchema := append(append([]base.ColID(nil), outer.schema...), inner.schema...)
	if op.Type == ops.SemiJoin || op.Type == ops.AntiJoin {
		outSchema = outer.schema
	}
	out := &result{schema: outSchema, parts: make([][]Row, len(outer.parts)), rep: rep}
	ectx := &evalCtx{sch: schemaOf(append(append([]base.ColID(nil), outer.schema...), inner.schema...)), bindings: ex.bindings}
	joined := make(Row, len(outer.schema)+len(inner.schema)) // as in execHashJoin

	for s := range outer.parts {
		if rep && s > 0 {
			break
		}
		oRows := outer.parts[s]
		iRows := inner.parts[s]
		if inner.rep {
			iRows = inner.parts[s] // full local copy
		}
		if err := ex.charge(len(oRows) * maxi(len(iRows), 1)); err != nil {
			return nil, err
		}
		for _, or := range oRows {
			matched := false
			copy(joined, or)
			for _, ir := range iRows {
				copy(joined[len(or):], ir)
				ok, err := ectx.truthy(op.Pred, joined)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				matched = true
				switch op.Type {
				case ops.InnerJoin, ops.LeftJoin:
					out.parts[s] = append(out.parts[s], append(Row(nil), joined...))
				case ops.SemiJoin:
					out.parts[s] = append(out.parts[s], or)
				case ops.AntiJoin:
					// Matched outer rows are excluded; see the unmatched
					// handling below.
				}
				if op.Type == ops.SemiJoin {
					break
				}
			}
			switch op.Type {
			case ops.LeftJoin:
				if !matched {
					out.parts[s] = append(out.parts[s], padRight(or, len(inner.schema)))
				}
			case ops.AntiJoin:
				if !matched {
					out.parts[s] = append(out.parts[s], or)
				}
			case ops.InnerJoin, ops.SemiJoin:
				// Emit-on-match only; nothing to do for unmatched rows.
			}
		}
	}
	fillReplicated(out)
	return out, nil
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Motions (the interconnect)

// execGather and execGatherMerge share gatherRows; the merge variant keeps
// the segment streams' order.
func (ex *executor) execGather(_ *ops.Gather, e *ops.Expr) (*result, error) {
	return ex.gatherRows(e.Children[0], props.OrderSpec{})
}

func (ex *executor) execGatherMerge(op *ops.GatherMerge, e *ops.Expr) (*result, error) {
	return ex.gatherRows(e.Children[0], op.Order)
}

func (ex *executor) gatherRows(child *ops.Expr, order props.OrderSpec) (*result, error) {
	in, err := ex.exec(child)
	if err != nil {
		return nil, err
	}
	out := &result{schema: in.schema, parts: make([][]Row, len(in.parts))}
	moved := 0
	for s, rows := range in.oneCopy() {
		if s != 0 {
			moved += len(rows)
		}
		out.parts[0] = append(out.parts[0], rows...)
	}
	if err := ex.chargeNet(moved); err != nil {
		return nil, err
	}
	if !order.IsAny() {
		// Merge-preserving gather: segment streams are already ordered;
		// merging is simulated with a stable sort over the concatenation.
		sortRows(out.parts[0], in.sch(), order)
		if err := ex.charge(len(out.parts[0])); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (ex *executor) execRedistribute(op *ops.Redistribute, e *ops.Expr) (*result, error) {
	in, err := ex.exec(e.Children[0])
	if err != nil {
		return nil, err
	}
	pos, err := colPositions(in.sch(), op.Cols)
	if err != nil {
		return nil, err
	}
	out := &result{schema: in.schema, parts: make([][]Row, len(in.parts))}
	moved := 0
	for from, rows := range in.oneCopy() {
		for _, r := range rows {
			to := int(hashCols(r, pos) % uint64(len(out.parts)))
			if to != from {
				moved++
			}
			out.parts[to] = append(out.parts[to], r)
		}
	}
	if err := ex.chargeNet(moved); err != nil {
		return nil, err
	}
	return out, nil
}

func (ex *executor) execBroadcast(_ *ops.Broadcast, e *ops.Expr) (*result, error) {
	in, err := ex.exec(e.Children[0])
	if err != nil {
		return nil, err
	}
	var all []Row
	for _, rows := range in.oneCopy() {
		all = append(all, rows...)
	}
	if err := ex.chargeNet(len(all) * len(in.parts)); err != nil {
		return nil, err
	}
	out := &result{schema: in.schema, parts: make([][]Row, len(in.parts)), rep: true}
	for s := range out.parts {
		out.parts[s] = all
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Sort / Limit / Union

func sortRows(rows []Row, sch schema, order props.OrderSpec) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, it := range order.Items {
			p := sch[it.Col]
			c := rows[i][p].Compare(rows[j][p])
			if c != 0 {
				if it.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
}

func sortParts(r *result, order props.OrderSpec) {
	sch := r.sch()
	for _, rows := range r.parts {
		sortRows(rows, sch, order)
	}
}

func (ex *executor) execSort(op *ops.Sort, e *ops.Expr) (*result, error) {
	in, err := ex.exec(e.Children[0])
	if err != nil {
		return nil, err
	}
	out := &result{schema: in.schema, parts: make([][]Row, len(in.parts)), rep: in.rep}
	for s, rows := range in.parts {
		cp := append([]Row(nil), rows...)
		sortRows(cp, in.sch(), op.Order)
		out.parts[s] = cp
		if err := ex.charge(len(rows) * log2i(len(rows))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func log2i(n int) int {
	l := 1
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

func (ex *executor) execPhysicalLimit(op *ops.PhysicalLimit, e *ops.Expr) (*result, error) {
	in, err := ex.exec(e.Children[0])
	if err != nil {
		return nil, err
	}
	var all []Row
	for _, rows := range in.oneCopy() {
		all = append(all, rows...)
	}
	if !op.Order.IsAny() {
		sortRows(all, in.sch(), op.Order)
	}
	start := int(op.Offset)
	if start > len(all) {
		start = len(all)
	}
	end := len(all)
	if op.HasCount && start+int(op.Count) < end {
		end = start + int(op.Count)
	}
	out := &result{schema: in.schema, parts: make([][]Row, len(in.parts))}
	out.parts[0] = all[start:end]
	if err := ex.charge(end - start); err != nil {
		return nil, err
	}
	return out, nil
}

func (ex *executor) execPhysicalUnionAll(op *ops.PhysicalUnionAll, e *ops.Expr) (*result, error) {
	sch := make([]base.ColID, len(op.OutCols))
	for i, c := range op.OutCols {
		sch[i] = c.ID
	}
	out := &result{schema: sch, parts: make([][]Row, ex.c.Segments)}
	for ci, childE := range e.Children {
		in, err := ex.exec(childE)
		if err != nil {
			return nil, err
		}
		pos, err := colPositions(in.sch(), op.InCols[ci])
		if err != nil {
			return nil, err
		}
		for s, rows := range in.oneCopy() {
			if err := ex.charge(len(rows)); err != nil {
				return nil, err
			}
			for _, r := range rows {
				nr := make(Row, len(pos))
				for i, p := range pos {
					nr[i] = r[p]
				}
				out.parts[s] = append(out.parts[s], nr)
			}
		}
	}
	return out, nil
}
