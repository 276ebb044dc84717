package ops

import (
	"fmt"
	"math"
	"strings"

	"orca/internal/base"
	"orca/internal/md"
	"orca/internal/props"
)

// The physical operator structs and their Name/Arity/ParamHash/ParamEqual
// methods are generated from defs/ops_physical.opt into ops.gen.go; this
// file keeps the hand-written property-framework halves (AppendChildReqs/Derive)
// and Describe renderings.

// physicalBase provides the Physical marker.
type physicalBase struct{}

func (physicalBase) physical() {}

// enforcerBase additionally provides the Enforcer marker.
type enforcerBase struct{ physicalBase }

func (enforcerBase) enforcer() {}

func anyReq() props.Required { return props.Required{Dist: props.AnyDist} }

// passThrough builds a child request keeping dist and order but dropping
// rewindability (most operators cannot deliver it; the Spool enforcer can).
func passThrough(req props.Required) props.Required {
	return props.Required{Dist: req.Dist, Order: req.Order}
}

// ---------------------------------------------------------------------------
// Scan / IndexScan

// OutputCols returns the scanned columns.
func (s *Scan) OutputCols() base.ColSet {
	var out base.ColSet
	for _, c := range s.Cols {
		out.Add(c.ID)
	}
	return out
}

// DistCols returns the ColIDs of the table's hash-distribution columns.
func (s *Scan) DistCols() []base.ColID {
	out := make([]base.ColID, len(s.Rel.DistCols))
	for i, ord := range s.Rel.DistCols {
		out[i] = s.Cols[ord].ID
	}
	return out
}

// AppendChildReqs implements Physical.
func (s *Scan) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required { return dst }

// Derive implements Physical: the delivered distribution is the stored
// table's distribution; scans are natively rewindable.
func (s *Scan) Derive([]props.Derived) props.Derived {
	return props.Derived{Dist: tableDist(s.Rel, s.Cols), Rewindable: true}
}

func (*Scan) requestInvariant() {}

// Describe renders the scan with filter and partition selection.
func (s *Scan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan(%s)", s.Rel.Name)
	if s.Pruned {
		parts, _ := PrunePartitions(s.Rel, s.Cols, s.Filter)
		fmt.Fprintf(&b, " parts=%d/%d", len(parts), len(s.Rel.Parts))
	}
	if s.Filter != nil {
		fmt.Fprintf(&b, " filter=%s", s.Filter)
	}
	return b.String()
}

// PrunePartitions statically eliminates partitions that cannot contain rows
// matching the predicate. It returns the kept partition ordinals and whether
// pruning applies (a partition-column constraint was found).
func PrunePartitions(rel *md.Relation, cols []*md.ColRef, pred ScalarExpr) ([]int, bool) {
	if !rel.IsPartitioned() || rel.PartCol >= len(cols) {
		return nil, false
	}
	partCol := cols[rel.PartCol].ID
	lo, hi := math.Inf(-1), math.Inf(1)
	hiExcl := false
	var eqVals []float64
	constrained := false
	for _, c := range Conjuncts(pred) {
		switch x := c.(type) {
		case *Cmp:
			l, r, op := x.L, x.R, x.Op
			if _, ok := l.(*Const); ok {
				l, r = r, l
				op = op.Commuted()
			}
			id, lok := l.(*Ident)
			cv, rok := r.(*Const)
			if !lok || !rok || id.Col != partCol {
				continue
			}
			v := cv.Val.AsFloat()
			constrained = true
			switch op {
			case CmpEq:
				eqVals = append(eqVals, v)
			case CmpLt:
				if v <= hi {
					hi = v
					hiExcl = true
				}
			case CmpLe:
				if v < hi {
					hi = v
					hiExcl = false
				}
			case CmpGt, CmpGe:
				lo = math.Max(lo, v)
			default:
				constrained = constrained || false
			}
		case *InList:
			id, ok := x.Arg.(*Ident)
			if !ok || id.Col != partCol || x.Negated {
				continue
			}
			allConst := true
			var vals []float64
			for _, v := range x.Vals {
				if cv, ok := v.(*Const); ok {
					vals = append(vals, cv.Val.AsFloat())
				} else {
					allConst = false
				}
			}
			if allConst {
				constrained = true
				eqVals = append(eqVals, vals...)
			}
		default:
			// Other conjunct forms cannot constrain the partition column.
		}
	}
	if !constrained {
		return nil, false
	}
	var keep []int
	for i, p := range rel.Parts {
		plo, phi := p.Lo.AsFloat(), p.Hi.AsFloat()
		if len(eqVals) > 0 {
			match := false
			for _, v := range eqVals {
				if v >= plo && v < phi {
					match = true
					break
				}
			}
			if !match {
				continue
			}
		}
		if phi <= lo {
			continue
		}
		if hiExcl && plo >= hi || !hiExcl && plo > hi {
			continue
		}
		keep = append(keep, i)
	}
	return keep, true
}

func tableDist(rel *md.Relation, cols []*md.ColRef) props.Distribution {
	switch rel.Policy {
	case md.DistHash:
		hc := make([]base.ColID, len(rel.DistCols))
		for i, ord := range rel.DistCols {
			hc[i] = cols[ord].ID
		}
		return props.Hashed(hc...)
	case md.DistReplicated:
		return props.ReplicatedDist
	case md.DistSingleton:
		return props.SingletonDist
	default:
		return props.RandomDist
	}
}

// OutputCols returns the scanned columns.
func (s *IndexScan) OutputCols() base.ColSet {
	var out base.ColSet
	for _, c := range s.Cols {
		out.Add(c.ID)
	}
	return out
}

// Order returns the sort order the index delivers.
func (s *IndexScan) Order() props.OrderSpec {
	items := make([]props.OrderItem, len(s.Index.KeyCols))
	for i, ord := range s.Index.KeyCols {
		items[i] = props.OrderItem{Col: s.Cols[ord].ID}
	}
	return props.OrderSpec{Items: items}
}

// AppendChildReqs implements Physical.
func (s *IndexScan) AppendChildReqs(_ props.Required, dst []props.Required) []props.Required {
	return dst
}

func (*IndexScan) requestInvariant() {}

// Derive implements Physical.
func (s *IndexScan) Derive([]props.Derived) props.Derived {
	return props.Derived{Dist: tableDist(s.Rel, s.Cols), Order: s.Order(), Rewindable: true}
}

// Describe renders the index scan.
func (s *IndexScan) Describe() string {
	d := fmt.Sprintf("IndexScan(%s via %s)", s.Rel.Name, s.Index.Name)
	if s.EqFilter != nil {
		d += " key=" + s.EqFilter.String()
	}
	if s.Residual != nil {
		d += " residual=" + s.Residual.String()
	}
	return d
}

// ---------------------------------------------------------------------------
// Filter / ComputeScalar

// AppendChildReqs implements Physical: requirements pass through the filter.
func (f *Filter) AppendChildReqs(req props.Required, dst []props.Required) []props.Required {
	return append(dst, passThrough(req))
}

// RequestOnlyKind implements RequestOnly: the predicate plays no part.
func (*Filter) RequestOnlyKind() int { return ReqOnlyFilter }

// Derive implements Physical: distribution and order pass through.
func (f *Filter) Derive(children []props.Derived) props.Derived {
	return props.Derived{Dist: children[0].Dist, Order: children[0].Order}
}

// Describe renders the predicate.
func (f *Filter) Describe() string { return "Filter " + f.Pred.String() }

// NewComputeScalar builds the operator, deriving the pass-through map.
func NewComputeScalar(elems []ProjElem) *ComputeScalar {
	pass := make(map[base.ColID]base.ColID)
	for _, e := range elems {
		if id, ok := e.Expr.(*Ident); ok {
			pass[e.Col.ID] = id.Col
		}
	}
	return &ComputeScalar{Elems: elems, PassMap: pass}
}

// OutputCols returns the projected columns.
func (p *ComputeScalar) OutputCols() base.ColSet {
	var s base.ColSet
	for _, e := range p.Elems {
		s.Add(e.Col.ID)
	}
	return s
}

// UsedCols returns the referenced input columns.
func (p *ComputeScalar) UsedCols() base.ColSet {
	var s base.ColSet
	for _, e := range p.Elems {
		s = s.Union(e.Expr.Cols())
	}
	return s
}

// translate rewrites a requirement through the pass-through map; ok is false
// when a required column is genuinely computed here and cannot be requested
// from the child.
func (p *ComputeScalar) translate(req props.Required) (props.Required, bool) {
	out := props.Required{}
	switch req.Dist.Kind {
	case props.DistHashed:
		cols := make([]base.ColID, len(req.Dist.Cols))
		for i, c := range req.Dist.Cols {
			in, ok := p.PassMap[c]
			if !ok {
				return out, false
			}
			cols[i] = in
		}
		out.Dist = props.Distribution{Kind: props.DistHashed, Cols: cols, AllowReplicated: req.Dist.AllowReplicated}
	default:
		out.Dist = req.Dist
	}
	items := make([]props.OrderItem, len(req.Order.Items))
	for i, it := range req.Order.Items {
		in, ok := p.PassMap[it.Col]
		if !ok {
			return out, false
		}
		items[i] = props.OrderItem{Col: in, Desc: it.Desc}
	}
	out.Order = props.OrderSpec{Items: items}
	return out, true
}

// AppendChildReqs implements Physical.
func (p *ComputeScalar) AppendChildReqs(req props.Required, dst []props.Required) []props.Required {
	if creq, ok := p.translate(req); ok {
		return append(dst, creq)
	}
	// Requirements name computed columns; ask nothing and let enforcers
	// above this operator deliver them.
	return append(dst, anyReq())
}

// Derive implements Physical: delivered properties are the child's,
// translated through the projection; hashing/ordering columns that are
// projected away degrade the distribution to Random and truncate the order.
func (p *ComputeScalar) Derive(children []props.Derived) props.Derived {
	out := props.Derived{}
	// Build reverse map input→output for identity projections.
	rev := make(map[base.ColID]base.ColID, len(p.PassMap))
	for o, in := range p.PassMap {
		rev[in] = o
	}
	cd := children[0]
	switch cd.Dist.Kind {
	case props.DistHashed:
		cols := make([]base.ColID, len(cd.Dist.Cols))
		ok := true
		for i, c := range cd.Dist.Cols {
			if o, found := rev[c]; found {
				cols[i] = o
			} else {
				ok = false
				break
			}
		}
		if ok {
			out.Dist = props.Hashed(cols...)
		} else {
			out.Dist = props.RandomDist
		}
	default:
		out.Dist = cd.Dist
	}
	var items []props.OrderItem
	for _, it := range cd.Order.Items {
		o, found := rev[it.Col]
		if !found {
			break
		}
		items = append(items, props.OrderItem{Col: o, Desc: it.Desc})
	}
	out.Order = props.OrderSpec{Items: items}
	return out
}

// Describe renders the projections.
func (p *ComputeScalar) Describe() string {
	parts := make([]string, len(p.Elems))
	for i, e := range p.Elems {
		parts[i] = fmt.Sprintf("c%d=%s", e.Col.ID, e.Expr)
	}
	return "ComputeScalar [" + strings.Join(parts, ", ") + "]"
}
