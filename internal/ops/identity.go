package ops

import (
	"orca/internal/base"
	"orca/internal/md"
)

// Hash and equality helpers backing the generated ParamHash/ParamEqual
// methods in ops.gen.go, one pair per composite field type of the operator
// DSL (defs/*.opt). Slice hashes mix in the length so a boundary shift
// between adjacent fields cannot collide silently.

func hashScalar(h uint64, e ScalarExpr) uint64 {
	if e == nil {
		return hashMix(h, 0xfd)
	}
	return hashMix(h, e.Hash())
}

func scalarEqual(a, b ScalarExpr) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Equal(b)
}

func hashScalars(h uint64, es []ScalarExpr) uint64 {
	for _, e := range es {
		h = hashScalar(h, e)
	}
	return hashMix(h, uint64(len(es)))
}

func scalarsEqual(a, b []ScalarExpr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !scalarEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func hashColIDs(h uint64, ids []base.ColID) uint64 {
	for _, c := range ids {
		h = hashMix(h, uint64(c))
	}
	return hashMix(h, uint64(len(ids)))
}

func colIDsEqual(a, b []base.ColID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func hashColRefs(h uint64, cols []*md.ColRef) uint64 {
	for _, c := range cols {
		h = hashMix(h, uint64(c.ID))
	}
	return hashMix(h, uint64(len(cols)))
}

func colRefsEqual(a, b []*md.ColRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

func hashColIDLists(h uint64, lists [][]base.ColID) uint64 {
	for _, l := range lists {
		h = hashColIDs(h, l)
		h = hashMix(h, 0xfe)
	}
	return hashMix(h, uint64(len(lists)))
}

func colIDListsEqual(a, b [][]base.ColID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !colIDsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func hashProjElems(h uint64, elems []ProjElem) uint64 {
	for _, e := range elems {
		h = hashMix(h, uint64(e.Col.ID))
		h = hashScalar(h, e.Expr)
	}
	return hashMix(h, uint64(len(elems)))
}

func projElemsEqual(a, b []ProjElem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Col.ID != b[i].Col.ID || !scalarEqual(a[i].Expr, b[i].Expr) {
			return false
		}
	}
	return true
}

func hashAggElems(h uint64, aggs []AggElem) uint64 {
	for _, a := range aggs {
		h = hashMix(h, uint64(a.Col.ID))
		h = hashMix(h, a.Agg.Hash())
	}
	return hashMix(h, uint64(len(aggs)))
}

func aggElemsEqual(a, b []AggElem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Col.ID != b[i].Col.ID || !a[i].Agg.Equal(b[i].Agg) {
			return false
		}
	}
	return true
}

func hashWinElems(h uint64, wins []WinElem) uint64 {
	for _, w := range wins {
		h = hashMix(h, uint64(w.Col.ID))
		h = hashMix(h, w.Fn.Hash())
	}
	return hashMix(h, uint64(len(wins)))
}

func winElemsEqual(a, b []WinElem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Col.ID != b[i].Col.ID || !a[i].Fn.Equal(b[i].Fn) {
			return false
		}
	}
	return true
}
