package stats

import (
	"math"

	"orca/internal/base"
	"orca/internal/md"
	"orca/internal/ops"
)

// Stats is the statistics object attached to a Memo group: an estimated row
// count plus per-column histograms. Stats values are immutable; derivation
// produces new objects.
type Stats struct {
	Rows float64
	Cols map[base.ColID]*Histogram
}

// NewStats builds an empty statistics object with the given cardinality.
// Pathological inputs (NaN, negative, infinite) are clamped so one bad
// estimate cannot poison cost comparisons across the Memo.
func NewStats(rows float64) *Stats {
	if math.IsNaN(rows) || rows < 0 {
		rows = 0
	} else if math.IsInf(rows, 1) {
		rows = 1e15
	}
	return &Stats{Rows: rows, Cols: make(map[base.ColID]*Histogram)}
}

// Hist returns the histogram of a column, or nil.
func (s *Stats) Hist(c base.ColID) *Histogram {
	if s == nil {
		return nil
	}
	return s.Cols[c]
}

// NDV returns the estimated distinct count of a column; when unknown it
// falls back to a fraction of the row count.
func (s *Stats) NDV(c base.ColID) float64 {
	if h := s.Hist(c); h != nil && h.NDV() > 0 {
		return h.NDV()
	}
	return math.Max(1, s.Rows*0.1)
}

// scaled returns new stats of the given row count whose histograms are the
// receiver's scaled by the row ratio (lazily: see Histogram.Scale).
func (s *Stats) scaled(rows float64) *Stats {
	out := NewStats(rows)
	factor := 1.0
	if s.Rows > 0 {
		factor = rows / s.Rows
	}
	for c, h := range s.Cols {
		out.Cols[c] = h.Scale(factor)
	}
	return out
}

// WithRows returns a copy of the stats rescaled to the given row count.
func (s *Stats) WithRows(rows float64) *Stats { return s.scaled(rows) }

// SizeBytes approximates the memory footprint, charged to the accountant.
func (s *Stats) SizeBytes() int64 {
	n := int64(48)
	for _, h := range s.Cols {
		n += 64 + 40*int64(h.Len())
	}
	return n
}

// Context supplies the statistics deriver with metadata access and the
// stats of CTE producers derived earlier in the same pass. Each optimization
// has its own, used by its one search goroutine.
type Context struct {
	Accessor *md.Accessor
	// DampingFactor discounts stacked predicate selectivities to counter
	// the independence assumption (1 = full independence).
	DampingFactor float64

	cte map[int]*Stats
}

// NewContext builds a derivation context.
func NewContext(acc *md.Accessor) *Context {
	return &Context{Accessor: acc, cte: make(map[int]*Stats), DampingFactor: 0.85}
}

// ForGet loads base-table statistics through the metadata accessor,
// translating column ordinals to the Get's column references. Histograms are
// fetched lazily — this is the paper's on-demand histogram loading.
func (ctx *Context) ForGet(rel *md.Relation, cols []*md.ColRef) (*Stats, error) {
	if !rel.StatsMdid.IsValid() {
		// No statistics collected: default guess.
		return NewStats(1000), nil
	}
	rs, err := ctx.Accessor.Stats(rel.StatsMdid)
	if err != nil {
		return nil, err
	}
	out := NewStats(rs.Rows)
	for _, cr := range cols {
		if cr.Ordinal < 0 {
			continue
		}
		if cs := rs.ColStatsFor(cr.Ordinal); cs != nil {
			out.Cols[cr.ID] = FromColStats(cs)
		}
	}
	return out, nil
}

// The Derive dispatch switch is generated into dispatch.gen.go from the
// logical operator definitions in defs/; the per-operator derive<Op>
// methods below are the hand-written derivation bodies it calls.

func (ctx *Context) deriveGet(o *ops.Get, _ []*Stats) (*Stats, error) {
	return ctx.ForGet(o.Rel, o.Cols)
}

func (ctx *Context) deriveSelect(o *ops.Select, child []*Stats) (*Stats, error) {
	return ctx.ApplyPred(child[0], o.Pred), nil
}

func (ctx *Context) deriveProject(_ *ops.Project, child []*Stats) (*Stats, error) {
	return child[0].scaled(child[0].Rows), nil
}

func (ctx *Context) deriveJoin(o *ops.Join, child []*Stats) (*Stats, error) {
	return ctx.DeriveJoin(o.Type, o.Pred, child[0], child[1]), nil
}

func (ctx *Context) deriveGbAgg(o *ops.GbAgg, child []*Stats) (*Stats, error) {
	return ctx.DeriveGroupBy(o.GroupCols, child[0]), nil
}

func (ctx *Context) deriveLimit(o *ops.Limit, child []*Stats) (*Stats, error) {
	rows := child[0].Rows
	if o.HasCount && float64(o.Count) < rows {
		rows = float64(o.Count)
	}
	return child[0].scaled(rows), nil
}

func (ctx *Context) deriveUnionAll(o *ops.UnionAll, child []*Stats) (*Stats, error) {
	return deriveUnion(o.InCols, o.OutCols, child), nil
}

func (ctx *Context) deriveCTEAnchor(_ *ops.CTEAnchor, child []*Stats) (*Stats, error) {
	return child[1], nil
}

func (ctx *Context) deriveCTEConsumer(o *ops.CTEConsumer, _ []*Stats) (*Stats, error) {
	return ctx.cteConsumerStats(o.ID, colRefIDs(o.Cols), o.ProducerCols), nil
}

func (ctx *Context) deriveWindow(_ *ops.Window, child []*Stats) (*Stats, error) {
	return child[0].scaled(child[0].Rows), nil
}

// deriveDefault passes the first child's statistics through; operators
// without a derivation body neither grow nor shrink their input.
func (ctx *Context) deriveDefault(child []*Stats) *Stats {
	if len(child) > 0 {
		return child[0]
	}
	return NewStats(1)
}

func colRefIDs(refs []*md.ColRef) []base.ColID {
	out := make([]base.ColID, len(refs))
	for i, r := range refs {
		out[i] = r.ID
	}
	return out
}

func (ctx *Context) cteConsumerStats(id int, cols, producerCols []base.ColID) *Stats {
	prod, ok := ctx.cte[id]
	if !ok {
		return NewStats(1000)
	}
	out := NewStats(prod.Rows)
	for i, pc := range producerCols {
		if i < len(cols) {
			if h := prod.Hist(pc); h != nil {
				out.Cols[cols[i]] = h
			}
		}
	}
	return out
}

// RegisterCTE records producer statistics for consumers derived later.
func (ctx *Context) RegisterCTE(id int, s *Stats) { ctx.cte[id] = s }

// HasCTE reports whether producer statistics were registered for the CTE.
func (ctx *Context) HasCTE(id int) bool {
	_, ok := ctx.cte[id]
	return ok
}

// ---------------------------------------------------------------------------
// Filters

// ApplyPred estimates a predicate's selectivity and reshapes the column
// histograms it constrains. Conjunct selectivities are combined with
// exponential damping to soften the independence assumption.
func (ctx *Context) ApplyPred(in *Stats, pred ops.ScalarExpr) *Stats {
	if pred == nil {
		return in
	}
	conjuncts := ops.Conjuncts(pred)
	sel := 1.0
	damp := 1.0
	filtered := make(map[base.ColID]*Histogram)
	for _, c := range conjuncts {
		cs := ctx.conjunctSel(in, c, filtered)
		sel *= math.Pow(cs, damp)
		damp *= ctx.DampingFactor
	}
	rows := math.Max(in.Rows*sel, 0)
	out := in.scaled(rows)
	// Columns directly constrained get their trimmed histograms (rescaled to
	// the output cardinality).
	for col, h := range filtered {
		hr := h.Rows()
		if hr > 0 && rows > 0 {
			out.Cols[col] = h.Scale(math.Min(rows/hr, 1))
		} else {
			out.Cols[col] = h
		}
	}
	return out
}

// conjunctSel estimates one conjunct's selectivity, recording per-column
// trimmed histograms in filtered.
func (ctx *Context) conjunctSel(in *Stats, c ops.ScalarExpr, filtered map[base.ColID]*Histogram) float64 {
	switch x := c.(type) {
	case *ops.Cmp:
		return ctx.cmpSel(in, x, filtered)
	case *ops.BoolOp:
		switch x.Kind {
		case ops.BoolNot:
			return clampSel(1 - ctx.conjunctSel(in, x.Args[0], map[base.ColID]*Histogram{}))
		case ops.BoolOr:
			notSel := 1.0
			for _, a := range x.Args {
				notSel *= 1 - ctx.conjunctSel(in, a, map[base.ColID]*Histogram{})
			}
			return clampSel(1 - notSel)
		default: // nested AND
			s := 1.0
			for _, a := range x.Args {
				s *= ctx.conjunctSel(in, a, filtered)
			}
			return s
		}
	case *ops.InList:
		if id, ok := x.Arg.(*ops.Ident); ok {
			if h := in.Hist(id.Col); h != nil {
				s := 0.0
				for _, v := range x.Vals {
					if cv, ok := v.(*ops.Const); ok {
						s += h.EqSel(cv.Val)
					}
				}
				if x.Negated {
					return clampSel(1 - s)
				}
				return clampSel(s)
			}
		}
		s := DefaultEqSel * float64(len(x.Vals))
		if x.Negated {
			s = 1 - s
		}
		return clampSel(s)
	case *ops.IsNull:
		var nf float64
		if id, ok := x.Arg.(*ops.Ident); ok {
			if h := in.Hist(id.Col); h != nil {
				nf = h.NullFrac()
			}
		}
		if x.Negated {
			return clampSel(1 - nf)
		}
		return clampSel(math.Max(nf, 0.001))
	case *ops.Func:
		if x.Name == "like" {
			return 0.1
		}
		return DefaultRangeSel
	case *ops.Subquery:
		return 0.5
	case *ops.Const:
		if x.Val.Bool() {
			return 1
		}
		return 0
	default:
		return DefaultRangeSel
	}
}

func (ctx *Context) cmpSel(in *Stats, x *ops.Cmp, filtered map[base.ColID]*Histogram) float64 {
	// Normalize to Ident <op> Const.
	l, r := x.L, x.R
	op := x.Op
	if _, ok := l.(*ops.Const); ok {
		l, r = r, l
		op = op.Commuted()
	}
	id, lok := l.(*ops.Ident)
	cv, rok := r.(*ops.Const)
	if lok && rok {
		h := in.Hist(id.Col)
		if h == nil {
			return defaultCmpSel(op)
		}
		v := cv.Val.AsFloat()
		switch op {
		case ops.CmpEq:
			filtered[id.Col] = h.FilterRange(v, v)
			return clampSel(h.EqSel(cv.Val))
		case ops.CmpNe:
			return clampSel(1 - h.EqSel(cv.Val))
		case ops.CmpLt, ops.CmpLe:
			filtered[id.Col] = h.FilterRange(math.Inf(-1), v)
			return clampSel(h.RangeSel(math.Inf(-1), v))
		case ops.CmpGt, ops.CmpGe:
			filtered[id.Col] = h.FilterRange(v, math.Inf(1))
			return clampSel(h.RangeSel(v, math.Inf(1)))
		}
	}
	// Column-to-column comparison within one input.
	li, lok2 := x.L.(*ops.Ident)
	ri, rok2 := x.R.(*ops.Ident)
	if lok2 && rok2 {
		if op == ops.CmpEq {
			ndv := math.Max(in.NDV(li.Col), in.NDV(ri.Col))
			return clampSel(1 / math.Max(ndv, 1))
		}
		return DefaultRangeSel
	}
	return defaultCmpSel(op)
}

func defaultCmpSel(op ops.CmpOp) float64 {
	switch op {
	case ops.CmpEq:
		return DefaultEqSel
	case ops.CmpNe:
		return DefaultNeSel
	default:
		return DefaultRangeSel
	}
}

func clampSel(s float64) float64 {
	if math.IsNaN(s) || s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// ---------------------------------------------------------------------------
// Joins

// DeriveJoin estimates join cardinality using histogram overlap on the
// equi-join keys (paper Figure 5: child histograms are combined into a
// possibly modified parent histogram).
func (ctx *Context) DeriveJoin(t ops.JoinType, pred ops.ScalarExpr, left, right *Stats) *Stats {
	leftKeys, rightKeys, residual := ops.EquiKeys(pred, colsOf(left), colsOf(right))
	// Equi-key selectivity over the row product.
	sel := 1.0
	damp := 1.0
	matchNDVs := make(map[base.ColID]float64)
	if len(leftKeys) == 0 {
		sel = crossSel(pred)
	}
	for i := range leftKeys {
		s, ndv := JoinOverlap(left.Hist(leftKeys[i]), right.Hist(rightKeys[i]))
		sel *= math.Pow(s, damp)
		damp *= ctx.DampingFactor
		if ndv > 0 {
			matchNDVs[leftKeys[i]] = ndv
			matchNDVs[rightKeys[i]] = ndv
		}
	}
	innerRows := left.Rows * right.Rows * sel
	switch t {
	case ops.InnerJoin, ops.LeftJoin:
		rows := innerRows
		if t == ops.LeftJoin && rows < left.Rows {
			rows = left.Rows
		}
		out := NewStats(math.Max(rows, 0))
		lf, rf := 1.0, 1.0
		if left.Rows > 0 {
			lf = math.Min(rows/left.Rows, 1)
		}
		if right.Rows > 0 {
			rf = math.Min(rows/right.Rows, 1)
		}
		for c, h := range left.Cols {
			out.Cols[c] = h.Scale(lf)
		}
		for c, h := range right.Cols {
			out.Cols[c] = h.Scale(rf)
		}
		for c, ndv := range matchNDVs {
			if h := out.Cols[c]; h != nil {
				// h is the node Scale just built, unread by anyone: the cap
				// applies when it materialises, and no source is touched.
				h.ndvCap = ndv
			}
		}
		if len(residual) > 0 {
			out = ctx.ApplyPred(out, ops.And(residual...))
		}
		return out
	case ops.SemiJoin, ops.AntiJoin:
		// Fraction of outer rows with at least one match.
		matchFrac := 1.0
		if len(leftKeys) > 0 {
			matchFrac = 0.0
			for i := range leftKeys {
				lh := left.Hist(leftKeys[i])
				ndvL := left.NDV(leftKeys[i])
				_, matchNDV := JoinOverlap(lh, right.Hist(rightKeys[i]))
				f := 0.75
				if ndvL > 0 && matchNDV > 0 {
					f = math.Min(matchNDV/ndvL, 1)
				}
				if matchFrac == 0 || f < matchFrac {
					matchFrac = f
				}
			}
		} else {
			matchFrac = 0.5
		}
		if t == ops.AntiJoin {
			matchFrac = 1 - matchFrac
		}
		return left.scaled(math.Max(left.Rows*matchFrac, 0))
	default:
		return left
	}
}

// crossSel estimates a join predicate with no extractable equi keys.
func crossSel(pred ops.ScalarExpr) float64 {
	if pred == nil {
		return 1
	}
	return DefaultRangeSel
}

func colsOf(s *Stats) base.ColSet {
	var out base.ColSet
	for c := range s.Cols {
		out.Add(c)
	}
	return out
}

// deriveNAryJoin chains the children pairwise in order, applying every
// predicate at the first point both sides are available.
func (ctx *Context) deriveNAryJoin(o *ops.NAryJoin, child []*Stats) (*Stats, error) {
	if len(child) == 0 {
		return NewStats(1), nil
	}
	acc := child[0]
	remaining := make([]ops.ScalarExpr, len(o.Preds))
	copy(remaining, o.Preds)
	for i := 1; i < len(child); i++ {
		accCols := colsOf(acc)
		nextCols := colsOf(child[i])
		both := accCols.Union(nextCols)
		var applicable []ops.ScalarExpr
		var rest []ops.ScalarExpr
		for _, p := range remaining {
			if p.Cols().SubsetOf(both) {
				applicable = append(applicable, p)
			} else {
				rest = append(rest, p)
			}
		}
		remaining = rest
		acc = ctx.DeriveJoin(ops.InnerJoin, ops.And(applicable...), acc, child[i])
	}
	if len(remaining) > 0 {
		acc = ctx.ApplyPred(acc, ops.And(remaining...))
	}
	return acc, nil
}

// ---------------------------------------------------------------------------
// Aggregation, union

// DeriveGroupBy estimates grouped-aggregate cardinality as the (damped)
// product of grouping-column NDVs, capped by the input cardinality.
func (ctx *Context) DeriveGroupBy(groupCols []base.ColID, in *Stats) *Stats {
	if len(groupCols) == 0 {
		out := NewStats(1)
		return out
	}
	groups := 1.0
	for i, c := range groupCols {
		ndv := in.NDV(c)
		if i == 0 {
			groups = ndv
		} else {
			// Damped product: later columns contribute the square root of
			// their NDV, a common correlation heuristic.
			groups *= math.Sqrt(ndv)
		}
	}
	groups = math.Min(groups, in.Rows)
	groups = math.Max(groups, 1)
	out := NewStats(groups)
	for _, c := range groupCols {
		if h := in.Hist(c); h != nil {
			// Each distinct value appears once.
			bs := h.Buckets()
			nb := make([]md.Bucket, len(bs))
			for i, b := range bs {
				nb[i] = md.Bucket{Lo: b.Lo, Hi: b.Hi, Rows: b.Distincts, Distincts: b.Distincts}
			}
			out.Cols[c] = newHistogram(nb, h.NDV(), 0)
		}
	}
	return out
}

func deriveUnion(inCols [][]base.ColID, outCols []*md.ColRef, child []*Stats) *Stats {
	var rows float64
	for _, c := range child {
		rows += c.Rows
	}
	out := NewStats(rows)
	if len(child) > 0 && len(inCols) > 0 {
		for i, oc := range outCols {
			if i < len(inCols[0]) {
				if h := child[0].Hist(inCols[0][i]); h != nil && child[0].Rows > 0 {
					out.Cols[oc.ID] = h.Scale(rows / child[0].Rows)
				}
			}
		}
	}
	return out
}
