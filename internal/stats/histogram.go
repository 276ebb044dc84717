// Package stats implements Orca's statistics derivation (paper §4.1 step 2):
// statistics objects are collections of column histograms used to derive
// cardinality and skew estimates. Derivation happens on the compact Memo —
// one statistics object per group, computed from the most promising group
// expression — and histograms are transformed through operators (filters
// reshape them, joins intersect them, aggregates collapse them).
package stats

import (
	"math"
	"sync"
	"sync/atomic"

	"orca/internal/base"
	"orca/internal/md"
)

// Default selectivities used when no histogram is available, in the
// tradition of Selinger-style magic numbers.
const (
	DefaultEqSel    = 0.005
	DefaultRangeSel = 0.33
	DefaultNeSel    = 0.995
)

// Histogram is an equi-depth histogram over one column plus NDV and null
// fraction. Rows in the histogram are absolute counts (not fractions), so a
// histogram is meaningful only together with its owning Stats row count.
// Histograms are immutable once built and safe for concurrent readers.
//
// Scale is lazy: it returns a node that records its source and factor, and
// the node's first read (Buckets, NDV, NullFrac or any estimate built on
// them) materialises it by running the scaling arithmetic on the
// materialised source — the same operations, in the same order, as scaling
// eagerly, so every estimate is bit-identical to the eager result. Most
// scaled histograms ride along through derivations that never read them and
// so never cost their buckets. Len and SkewRatio need no materialisation.
type Histogram struct {
	once sync.Once // materialises a Scale node
	// Until materialised: src and factor are the pending Scale, and ndvCap,
	// when positive, caps the scaled NDV (a join key's matched NDV). src is
	// atomic because SkewRatio reads a node without materialising it.
	src            atomic.Pointer[Histogram]
	factor, ndvCap float64
	n              int           // bucket count, known before materialisation
	skew           atomic.Uint64 // SkewRatio's bits once computed; 0 until then

	buckets       []md.Bucket
	ndv, nullFrac float64
}

// newHistogram builds a materialised histogram.
func newHistogram(buckets []md.Bucket, ndv, nullFrac float64) *Histogram {
	return &Histogram{n: len(buckets), buckets: buckets, ndv: ndv, nullFrac: nullFrac}
}

// FromColStats converts catalog column statistics.
func FromColStats(cs *md.ColStats) *Histogram {
	if cs == nil {
		return nil
	}
	buckets := make([]md.Bucket, len(cs.Buckets))
	copy(buckets, cs.Buckets)
	return newHistogram(buckets, cs.NDV, cs.NullFrac)
}

// m materialises h, once, and returns it.
func (h *Histogram) m() *Histogram {
	h.once.Do(h.materialise)
	return h
}

// materialise runs the pending Scale on the materialised source.
// FuzzHistogramScale holds the result bit-identical to the eager reference
// in histogram_ref_test.go, so reorder no operation here.
func (h *Histogram) materialise() {
	src, factor := h.src.Load(), h.factor
	if src == nil {
		return // built materialised
	}
	src.m()
	h.nullFrac = src.nullFrac
	h.buckets = make([]md.Bucket, len(src.buckets))
	if factor > 1 {
		// Row multiplication (e.g. joins): counts scale, NDV does not grow.
		h.ndv = src.ndv
		for i, b := range src.buckets {
			h.buckets[i] = md.Bucket{Lo: b.Lo, Hi: b.Hi, Rows: b.Rows * factor, Distincts: b.Distincts}
		}
	} else {
		for i, b := range src.buckets {
			h.buckets[i] = md.Bucket{
				Lo:        b.Lo,
				Hi:        b.Hi,
				Rows:      b.Rows * factor,
				Distincts: scaleNDV(b.Distincts, b.Rows, factor),
			}
			h.ndv += h.buckets[i].Distincts
		}
	}
	if h.ndvCap > 0 {
		h.ndv = math.Min(h.ndv, h.ndvCap)
	}
	h.src.Store(nil)
}

// Buckets returns the histogram's buckets; callers must not modify them.
func (h *Histogram) Buckets() []md.Bucket { return h.m().buckets }

// NDV returns the column's estimated number of distinct values.
func (h *Histogram) NDV() float64 { return h.m().ndv }

// NullFrac returns the column's fraction of nulls.
func (h *Histogram) NullFrac() float64 { return h.m().nullFrac }

// Len returns the number of buckets without materialising a Scale node.
func (h *Histogram) Len() int { return h.n }

// Rows returns the total row count covered by the histogram buckets.
func (h *Histogram) Rows() float64 {
	var n float64
	for _, b := range h.Buckets() {
		n += b.Rows
	}
	return n
}

// Lo and Hi return the histogram's value range projected to float64.
func (h *Histogram) Lo() float64 {
	bs := h.Buckets()
	if len(bs) == 0 {
		return 0
	}
	return bs[0].Lo.AsFloat()
}

// Hi returns the histogram's upper bound projected to float64.
func (h *Histogram) Hi() float64 {
	bs := h.Buckets()
	if len(bs) == 0 {
		return 0
	}
	return bs[len(bs)-1].Hi.AsFloat()
}

// Scale returns the histogram with all bucket counts and the NDV scaled by
// factor (NDV scales sublinearly, following the standard distinct-value
// decay). The result is a lazy node, materialised on first read; a factor
// of 1 is not a shortcut, since the NDV decay moves even then.
func (h *Histogram) Scale(factor float64) *Histogram {
	if h == nil {
		return nil
	}
	s := &Histogram{factor: factor, n: h.n}
	s.src.Store(h)
	return s
}

// scaleNDV estimates how many of d distinct values survive keeping a
// `factor` fraction of n rows, using the standard balls-and-bins estimate.
func scaleNDV(d, n, factor float64) float64 {
	if d <= 0 || n <= 0 || factor <= 0 {
		return 0
	}
	kept := n * factor
	if d <= 1 {
		// Sub-unit distinct counts arise from repeated scaling; the power
		// formula needs d > 1 (its base must stay in (0,1)).
		return math.Min(d, kept)
	}
	// Expected distinct values after sampling `kept` of n rows over d values.
	est := d * (1 - math.Pow(1-1/d, kept))
	return math.Min(est, math.Min(d, kept))
}

// EqSel returns the fraction of rows equal to v.
func (h *Histogram) EqSel(v base.Datum) float64 {
	total := h.Rows()
	if total <= 0 {
		return DefaultEqSel
	}
	f := v.AsFloat()
	bs := h.Buckets()
	for i, b := range bs {
		lo, hi := b.Lo.AsFloat(), b.Hi.AsFloat()
		last := i == len(bs)-1
		if f >= lo && (f < hi || (last && f <= hi)) {
			if b.Distincts <= 0 {
				return 0
			}
			return (b.Rows / b.Distincts) / total
		}
	}
	return 0
}

// RangeSel returns the fraction of rows in [lo, hi]; use math.Inf bounds for
// open ranges.
func (h *Histogram) RangeSel(lo, hi float64) float64 {
	total := h.Rows()
	if total <= 0 {
		return DefaultRangeSel
	}
	var kept float64
	for _, b := range h.Buckets() {
		blo, bhi := b.Lo.AsFloat(), b.Hi.AsFloat()
		kept += b.Rows * overlapFrac(blo, bhi, lo, hi)
	}
	return kept / total
}

// overlapFrac returns the fraction of [blo,bhi) overlapped by [lo,hi],
// assuming uniformity within the bucket.
func overlapFrac(blo, bhi, lo, hi float64) float64 {
	if bhi <= blo {
		// Degenerate single-value bucket.
		if blo >= lo && blo <= hi {
			return 1
		}
		return 0
	}
	l := math.Max(blo, lo)
	r := math.Min(bhi, hi)
	if r <= l {
		return 0
	}
	return (r - l) / (bhi - blo)
}

// FilterRange returns a copy of the histogram restricted to [lo, hi].
func (h *Histogram) FilterRange(lo, hi float64) *Histogram {
	var buckets []md.Bucket
	var ndv float64
	for _, b := range h.Buckets() {
		frac := overlapFrac(b.Lo.AsFloat(), b.Hi.AsFloat(), lo, hi)
		if frac <= 0 {
			continue
		}
		nb := md.Bucket{
			Lo:        b.Lo,
			Hi:        b.Hi,
			Rows:      b.Rows * frac,
			Distincts: scaleNDV(b.Distincts, b.Rows, frac),
		}
		buckets = append(buckets, nb)
		ndv += nb.Distincts
	}
	return newHistogram(buckets, ndv, 0)
}

// JoinOverlap estimates the equi-join between columns described by h and o:
// it returns the selectivity to apply to the row-count product, and the NDV
// of the join key in the result.
func JoinOverlap(h, o *Histogram) (sel, ndv float64) {
	if h == nil || o == nil || h.NDV() <= 0 || o.NDV() <= 0 {
		return DefaultEqSel, 0
	}
	// Fraction of each side's domain inside the shared value range.
	lo := math.Max(h.Lo(), o.Lo())
	hi := math.Min(h.Hi(), o.Hi())
	if hi < lo {
		return 0, 0
	}
	hin := h.RangeSel(lo, hi)
	oin := o.RangeSel(lo, hi)
	hNDV := math.Max(h.NDV()*hin, 1)
	oNDV := math.Max(o.NDV()*oin, 1)
	matchNDV := math.Min(hNDV, oNDV)
	// Containment assumption: sel applied to |R|x|S|.
	sel = hin * oin / math.Max(hNDV, oNDV)
	return sel, matchNDV
}

// SkewRatio estimates distribution skew for hashing on this column: the
// ratio of the most frequent value's share to the uniform share (1 = no
// skew). The cost model charges skewed redistributions extra (paper §4.1:
// statistics derive "estimates for cardinality and data skew").
//
// On a Scale node not yet materialised it runs materialise's arithmetic, in
// the same order, in one loop over the source's buckets and keeps none of
// them: the costed hash joins and redistributions would otherwise
// materialise most of the Scale nodes that are ever materialised. The
// result is kept (it is never 0), since every costed alternative asks.
func (h *Histogram) SkewRatio() float64 {
	if h == nil {
		return 1
	}
	if b := h.skew.Load(); b != 0 {
		return math.Float64frombits(b)
	}
	r := h.skewRatio()
	h.skew.Store(math.Float64bits(r))
	return r
}

func (h *Histogram) skewRatio() float64 {
	var total, ndv, maxPerVal float64
	perVal := func(rows, distincts float64) {
		if distincts > 0 && rows/distincts > maxPerVal {
			maxPerVal = rows / distincts
		}
	}
	if src := h.src.Load(); src != nil {
		src.m()
		grow := h.factor > 1 // not "factor <= 1": a NaN factor scales
		if grow {
			ndv = src.ndv
		}
		for _, b := range src.buckets {
			rows, d := b.Rows*h.factor, b.Distincts
			if !grow {
				d = scaleNDV(b.Distincts, b.Rows, h.factor)
				ndv += d
			}
			total += rows
			perVal(rows, d)
		}
		if h.ndvCap > 0 {
			ndv = math.Min(ndv, h.ndvCap)
		}
	} else {
		for _, b := range h.Buckets() {
			total += b.Rows
			perVal(b.Rows, b.Distincts)
		}
		ndv = h.NDV()
	}
	if total <= 0 || ndv <= 0 {
		return 1
	}
	uniform := total / ndv
	if uniform <= 0 {
		return 1
	}
	r := maxPerVal / uniform
	if r < 1 {
		return 1
	}
	return r
}
