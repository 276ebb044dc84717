package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"orca/internal/base"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
)

// uniformHist builds a histogram of `rows` rows with `ndv` values over
// [lo, hi).
func uniformHist(rows, ndv, lo, hi float64) *Histogram {
	return newHistogram(md.UniformBuckets(rows, ndv, lo, hi, 0), ndv, 0)
}

func TestHistogramEqSel(t *testing.T) {
	h := uniformHist(1000, 100, 0, 100)
	sel := h.EqSel(base.NewInt(50))
	if sel < 0.005 || sel > 0.02 {
		t.Errorf("EqSel(50) = %g, want ~1/100", sel)
	}
	if h.EqSel(base.NewInt(500)) != 0 {
		t.Error("out-of-range equality should be 0")
	}
}

func TestHistogramRangeSel(t *testing.T) {
	h := uniformHist(1000, 100, 0, 100)
	cases := []struct {
		lo, hi, want, tol float64
	}{
		{0, 100, 1, 0.01},
		{0, 50, 0.5, 0.05},
		{25, 75, 0.5, 0.05},
		{math.Inf(-1), 10, 0.1, 0.05},
		{90, math.Inf(1), 0.1, 0.05},
		{200, 300, 0, 0.001},
	}
	for _, c := range cases {
		got := h.RangeSel(c.lo, c.hi)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("RangeSel(%g,%g) = %g, want %g±%g", c.lo, c.hi, got, c.want, c.tol)
		}
	}
}

func TestFilterRangePreservesMassFraction(t *testing.T) {
	h := uniformHist(1000, 100, 0, 100)
	f := h.FilterRange(0, 30)
	if got := f.Rows(); got < 250 || got > 350 {
		t.Errorf("filtered mass %g, want ~300", got)
	}
	if f.NDV() <= 0 || f.NDV() > 40 {
		t.Errorf("filtered NDV %g, want ~30", f.NDV())
	}
}

// TestScaleNeverProducesNaN is the regression test for the sub-unit NDV
// power-formula bug: repeated scaling must never generate NaN.
func TestScaleNeverProducesNaN(t *testing.T) {
	f := func(rows uint16, ndv uint8, steps []uint8) bool {
		h := uniformHist(float64(rows%5000)+1, float64(ndv%100)+1, 0, 100)
		for _, s := range steps {
			factor := float64(s%200) / 100 // 0..2
			h = h.Scale(factor)
			for _, b := range h.Buckets() {
				if math.IsNaN(b.Rows) || math.IsNaN(b.Distincts) || b.Rows < 0 || b.Distincts < 0 {
					return false
				}
			}
			if math.IsNaN(h.NDV()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJoinOverlap(t *testing.T) {
	// Perfect FK join: fact 10000 rows over keys 0..99, dim 100 keys.
	fact := uniformHist(10000, 100, 0, 100)
	dim := uniformHist(100, 100, 0, 100)
	sel, ndv := JoinOverlap(fact, dim)
	rows := 10000.0 * 100 * sel
	if rows < 5000 || rows > 20000 {
		t.Errorf("FK join estimate %g rows, want ~10000", rows)
	}
	if ndv < 50 || ndv > 110 {
		t.Errorf("join NDV %g, want ~100", ndv)
	}
	// Disjoint domains: no matches.
	left := uniformHist(100, 10, 0, 10)
	right := uniformHist(100, 10, 50, 60)
	sel, _ = JoinOverlap(left, right)
	if sel != 0 {
		t.Errorf("disjoint join sel = %g, want 0", sel)
	}
	// Partial overlap shrinks selectivity.
	half := uniformHist(100, 100, 50, 150)
	full := uniformHist(100, 100, 0, 100)
	selHalf, _ := JoinOverlap(full, half)
	selFull, _ := JoinOverlap(full, full)
	if selHalf >= selFull {
		t.Errorf("partial overlap (%g) not below full overlap (%g)", selHalf, selFull)
	}
}

func TestSkewRatio(t *testing.T) {
	flat := uniformHist(1000, 100, 0, 100)
	if r := flat.SkewRatio(); r < 0.99 || r > 1.3 {
		t.Errorf("uniform skew %g, want ~1", r)
	}
	skewed := newHistogram(md.UniformBuckets(1000, 100, 0, 100, 8), 100, 0)
	if r := skewed.SkewRatio(); r <= 1.5 {
		t.Errorf("skewed ratio %g, want > 1.5", r)
	}
	var none *Histogram
	if r := none.SkewRatio(); r != 1 {
		t.Errorf("nil histogram skew %g, want 1", r)
	}
}

// TestLazyScaleConcurrentReaders reads one chain of lazy Scale nodes from
// many goroutines at once, as concurrent requests may read histograms they
// share: the -race gate checks materialisation and SkewRatio's reads of
// nodes other readers are materialising, and every reader must see what a
// single reader of an identical chain saw.
func TestLazyScaleConcurrentReaders(t *testing.T) {
	base := uniformHist(5000, 80, 0, 100)
	newChain := func() []*Histogram {
		mid := base.Scale(0.4)
		return []*Histogram{mid, mid.Scale(3), mid.Scale(0.5).Scale(1)}
	}
	read := func(h *Histogram) float64 { return h.SkewRatio() + h.NDV() + h.Rows() }
	var want []float64
	for _, h := range newChain() {
		want = append(want, read(h))
	}
	chain := newChain()
	var wg sync.WaitGroup
	got := make([][]float64, 8)
	for g := range got {
		got[g] = make([]float64, len(chain))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := len(chain) - 1; i >= 0; i-- { // leaf first: it materialises its sources
				got[g][i] = read(chain[i])
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, v := range got[g] {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Errorf("reader %d, node %d: %v, want %v", g, i, v, want[i])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Derivation

func testCtx(t *testing.T) (*Context, *ops.Get, *ops.Get) {
	t.Helper()
	p := md.NewMemProvider()
	relA := md.Build(p, md.TableSpec{
		Name: "a", Rows: 10000, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "k", Type: base.TInt, NDV: 100, Lo: 0, Hi: 100},
			{Name: "v", Type: base.TInt, NDV: 1000, Lo: 0, Hi: 1000},
		},
	})
	relB := md.Build(p, md.TableSpec{
		Name: "b", Rows: 100, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "k", Type: base.TInt, NDV: 100, Lo: 0, Hi: 100},
		},
	})
	acc := md.NewAccessor(md.NewCache(&gpos.MemoryAccountant{}), p)
	f := md.NewColumnFactory()
	getA := &ops.Get{Alias: "a", Rel: relA, Cols: []*md.ColRef{
		f.NewTableColumn("k", base.TInt, relA.Mdid, 0),
		f.NewTableColumn("v", base.TInt, relA.Mdid, 1),
	}}
	getB := &ops.Get{Alias: "b", Rel: relB, Cols: []*md.ColRef{
		f.NewTableColumn("k", base.TInt, relB.Mdid, 0),
	}}
	return NewContext(acc), getA, getB
}

func TestDeriveGetAndFilter(t *testing.T) {
	ctx, getA, _ := testCtx(t)
	sa, err := ctx.Derive(getA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Rows != 10000 {
		t.Errorf("base rows %g", sa.Rows)
	}
	k := getA.Cols[0].ID
	// Equality on k: ~1/100.
	eq := ctx.ApplyPred(sa, ops.Eq(ops.NewIdent(k, base.TInt), ops.NewConst(base.NewInt(5))))
	if eq.Rows < 50 || eq.Rows > 200 {
		t.Errorf("equality estimate %g, want ~100", eq.Rows)
	}
	// Range k < 50: ~half.
	lt := ctx.ApplyPred(sa, ops.NewCmp(ops.CmpLt, ops.NewIdent(k, base.TInt), ops.NewConst(base.NewInt(50))))
	if lt.Rows < 4000 || lt.Rows > 6000 {
		t.Errorf("range estimate %g, want ~5000", lt.Rows)
	}
	// Filter histogram is reshaped: further filtering past the cut is ~0.
	gt := ctx.ApplyPred(lt, ops.NewCmp(ops.CmpGt, ops.NewIdent(k, base.TInt), ops.NewConst(base.NewInt(80))))
	if gt.Rows > lt.Rows*0.05 {
		t.Errorf("contradictory filter estimate %g of %g", gt.Rows, lt.Rows)
	}
	// Conjunction is damped but monotone.
	both := ctx.ApplyPred(sa, ops.And(
		ops.NewCmp(ops.CmpLt, ops.NewIdent(k, base.TInt), ops.NewConst(base.NewInt(50))),
		ops.NewCmp(ops.CmpGt, ops.NewIdent(getA.Cols[1].ID, base.TInt), ops.NewConst(base.NewInt(500))),
	))
	if both.Rows >= lt.Rows {
		t.Errorf("conjunction (%g) not below single filter (%g)", both.Rows, lt.Rows)
	}
}

func TestDeriveJoinTypes(t *testing.T) {
	ctx, getA, getB := testCtx(t)
	sa, _ := ctx.Derive(getA, nil)
	sb, _ := ctx.Derive(getB, nil)
	pred := ops.Eq(ops.NewIdent(getA.Cols[0].ID, base.TInt), ops.NewIdent(getB.Cols[0].ID, base.TInt))

	inner := ctx.DeriveJoin(ops.InnerJoin, pred, sa, sb)
	if inner.Rows < 5000 || inner.Rows > 20000 {
		t.Errorf("FK inner join %g rows, want ~10000", inner.Rows)
	}
	left := ctx.DeriveJoin(ops.LeftJoin, pred, sa, sb)
	if left.Rows < sa.Rows {
		t.Errorf("left join (%g) below outer side (%g)", left.Rows, sa.Rows)
	}
	semi := ctx.DeriveJoin(ops.SemiJoin, pred, sa, sb)
	if semi.Rows > sa.Rows || semi.Rows <= 0 {
		t.Errorf("semi join %g out of [0, %g]", semi.Rows, sa.Rows)
	}
	anti := ctx.DeriveJoin(ops.AntiJoin, pred, sa, sb)
	if got := semi.Rows + anti.Rows; math.Abs(got-sa.Rows) > sa.Rows*0.01 {
		t.Errorf("semi (%g) + anti (%g) != outer (%g)", semi.Rows, anti.Rows, sa.Rows)
	}
	cross := ctx.DeriveJoin(ops.InnerJoin, nil, sa, sb)
	if cross.Rows != sa.Rows*sb.Rows {
		t.Errorf("cross join %g, want %g", cross.Rows, sa.Rows*sb.Rows)
	}
}

func TestDeriveGroupBy(t *testing.T) {
	ctx, getA, _ := testCtx(t)
	sa, _ := ctx.Derive(getA, nil)
	k := getA.Cols[0].ID
	g := ctx.DeriveGroupBy([]base.ColID{k}, sa)
	if g.Rows < 50 || g.Rows > 150 {
		t.Errorf("group estimate %g, want ~100 (NDV of k)", g.Rows)
	}
	// Grouping can never exceed the input.
	g2 := ctx.DeriveGroupBy([]base.ColID{k, getA.Cols[1].ID}, sa)
	if g2.Rows > sa.Rows {
		t.Errorf("groups (%g) exceed input (%g)", g2.Rows, sa.Rows)
	}
	// Scalar aggregation: exactly one row.
	if s := ctx.DeriveGroupBy(nil, sa); s.Rows != 1 {
		t.Errorf("scalar agg %g rows", s.Rows)
	}
}

func TestCTERegistration(t *testing.T) {
	ctx, getA, _ := testCtx(t)
	sa, _ := ctx.Derive(getA, nil)
	ctx.RegisterCTE(3, sa)
	f := md.NewColumnFactory()
	consumer := &ops.CTEConsumer{
		ID:           3,
		Cols:         []*md.ColRef{f.NewComputedColumn("k", base.TInt)},
		ProducerCols: []base.ColID{getA.Cols[0].ID},
	}
	st, err := ctx.Derive(consumer, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != sa.Rows {
		t.Errorf("consumer rows %g, want %g", st.Rows, sa.Rows)
	}
	if st.Hist(consumer.Cols[0].ID) == nil {
		t.Error("producer histogram not remapped to consumer column")
	}
}

func TestNewStatsClampsPathologicalValues(t *testing.T) {
	for in, want := range map[float64]float64{
		math.NaN():  0,
		-5:          0,
		math.Inf(1): 1e15,
		42:          42,
	} {
		if got := NewStats(in).Rows; got != want {
			t.Errorf("NewStats(%v).Rows = %v, want %v", in, got, want)
		}
	}
}
