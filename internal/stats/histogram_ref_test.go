package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"orca/internal/md"
	"orca/internal/tpcds"
)

// refHistogram is the eager histogram Scale, FilterRange and the join NDV cap
// worked on before scaling became lazy, kept verbatim as the oracle of
// FuzzHistogramScale: every lazy node must materialise to bit-identical
// buckets, NDV and null fraction.
type refHistogram struct {
	Buckets  []md.Bucket
	NDV      float64
	NullFrac float64
}

// Scale returns a copy with all bucket counts and the NDV scaled by factor
// (NDV scales sublinearly, following the standard distinct-value decay).
func (h *refHistogram) Scale(factor float64) *refHistogram {
	if h == nil {
		return nil
	}
	if factor > 1 {
		// Row multiplication (e.g. joins): counts scale, NDV does not grow.
		out := &refHistogram{NDV: h.NDV, NullFrac: h.NullFrac}
		out.Buckets = make([]md.Bucket, len(h.Buckets))
		for i, b := range h.Buckets {
			out.Buckets[i] = md.Bucket{Lo: b.Lo, Hi: b.Hi, Rows: b.Rows * factor, Distincts: b.Distincts}
		}
		return out
	}
	out := &refHistogram{NullFrac: h.NullFrac}
	out.Buckets = make([]md.Bucket, len(h.Buckets))
	for i, b := range h.Buckets {
		out.Buckets[i] = md.Bucket{
			Lo:        b.Lo,
			Hi:        b.Hi,
			Rows:      b.Rows * factor,
			Distincts: scaleNDV(b.Distincts, b.Rows, factor),
		}
		out.NDV += out.Buckets[i].Distincts
	}
	return out
}

// SkewRatio is Histogram.SkewRatio as it was written over materialised
// buckets.
func (h *refHistogram) SkewRatio() float64 {
	var total float64
	for _, b := range h.Buckets {
		total += b.Rows
	}
	if total <= 0 || h.NDV <= 0 {
		return 1
	}
	var maxPerVal float64
	for _, b := range h.Buckets {
		if b.Distincts > 0 {
			perVal := b.Rows / b.Distincts
			if perVal > maxPerVal {
				maxPerVal = perVal
			}
		}
	}
	uniform := total / h.NDV
	if uniform <= 0 {
		return 1
	}
	r := maxPerVal / uniform
	if r < 1 {
		return 1
	}
	return r
}

// FilterRange returns a copy of the histogram restricted to [lo, hi].
func (h *refHistogram) FilterRange(lo, hi float64) *refHistogram {
	out := &refHistogram{NullFrac: 0}
	for _, b := range h.Buckets {
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
		out.Buckets = append(out.Buckets, nb)
		out.NDV += nb.Distincts
	}
	return out
}

// catalogHists returns every column histogram of the scale-1 TPC-DS catalog,
// in relation and ordinal order.
func catalogHists() []*md.ColStats {
	p := md.NewMemProvider()
	tpcds.BuildCatalog(p, tpcds.Scale{Factor: 1})
	var out []*md.ColStats
	for _, obj := range p.Objects() {
		if rs, ok := obj.(*md.RelStats); ok {
			for i := range rs.Cols {
				out = append(out, &rs.Cols[i])
			}
		}
	}
	return out
}

// A chain program is a run of fixed-length instructions: an opcode byte, a
// byte picking the source among the histograms built so far, and two
// arguments of argLen bytes each, decoded by num.
const (
	opScale       = iota // Scale(a)
	opScaleCapped        // Scale(a), then the join NDV cap b when b > 0
	opFilterRange        // FilterRange(lo+a, lo+b), lo the source's low bound
	opRead               // read the source (materialises a lazy node)
	numOps

	argLen   = 9
	instrLen = 2 + 2*argLen
)

// factors are the values the search scales by — 0, 1, below and above 1 —
// plus a few bounds; num picks from it unless the argument asks for raw bits.
var factors = [...]float64{0, 1, 0.5, 2, 0.001, 1e-9, 0.999999, 1.000001, 37, 1e6, 0.25, 3, math.Inf(1), -1, 12.5, 200}

// num decodes an argument: a mode byte, then either a factors index (even
// mode) or the eight bytes of a float64 (odd mode).
func num(arg []byte) float64 {
	if arg[0]&1 == 0 {
		return factors[int(arg[1])%len(factors)]
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(arg[1:argLen]))
}

// instr encodes one instruction whose arguments index factors.
func instr(op, src, a, b byte) []byte {
	in := make([]byte, instrLen)
	in[0], in[1], in[3], in[3+argLen] = op, src, a, b
	return in
}

// instrRaw encodes one instruction with raw float64 arguments.
func instrRaw(op, src byte, a, b float64) []byte {
	in := make([]byte, instrLen)
	in[0], in[1], in[2], in[2+argLen] = op, src, 1, 1
	binary.LittleEndian.PutUint64(in[3:], math.Float64bits(a))
	binary.LittleEndian.PutUint64(in[3+argLen:], math.Float64bits(b))
	return in
}

// FuzzHistogramScale holds lazy scaling to the eager reference: over a
// random chain of Scale, FilterRange and the join NDV cap starting from a
// TPC-DS catalog histogram, reading nodes in between and afterwards, every
// node's buckets, NDV and null fraction are bit-equal (math.Float64bits) to
// the eager result. The seeds, one per catalog column, run under go test;
// fuzz with
//
//	go test -run '^$' -fuzz FuzzHistogramScale -fuzztime 10s ./internal/stats/
func FuzzHistogramScale(f *testing.F) {
	cols := catalogHists()
	for i := range cols {
		// Factors 1, 0, below and above 1, chained off the catalog node and
		// off each other; a capped join output, a filter of a lazy node, and
		// reads in between.
		prog := instr(opScale, 0, 1, 0)                           // 1: x1
		prog = append(prog, instr(opScale, 1, 2, 0)...)           // 2: x0.5 of 1
		prog = append(prog, instr(opScaleCapped, 2, 6, 2)...)     // 3: x0.999999 of 2, NDV cap 0.5
		prog = append(prog, instr(opRead, 1, 0, 0)...)            //    read 1
		prog = append(prog, instr(opScale, 3, 3, 0)...)           // 4: x2 of 3
		prog = append(prog, instr(opScale, 0, 0, 0)...)           // 5: x0
		prog = append(prog, instr(opFilterRange, 4, 1, 15)...)    // 6: filter of 4
		prog = append(prog, instrRaw(opScale, 6, 0.3, 0)...)      // 7: x0.3 of 6
		prog = append(prog, instrRaw(opScaleCapped, 4, 7, 40)...) // 8: x7 of 4, NDV cap 40
		f.Add(uint16(i), prog)
	}
	f.Fuzz(func(t *testing.T, col uint16, prog []byte) {
		cs := cols[int(col)%len(cols)]
		lazy := []*Histogram{FromColStats(cs)}
		ref := []*refHistogram{{Buckets: append([]md.Bucket(nil), cs.Buckets...), NDV: cs.NDV, NullFrac: cs.NullFrac}}
		for ; len(prog) >= instrLen && len(lazy) < 64; prog = prog[instrLen:] {
			src := int(prog[1]) % len(lazy)
			a, b := num(prog[2:2+argLen]), num(prog[2+argLen:instrLen])
			switch prog[0] % numOps {
			case opScale:
				lazy = append(lazy, lazy[src].Scale(a))
				ref = append(ref, ref[src].Scale(a))
			case opScaleCapped:
				// DeriveJoin caps the fresh output of Scale at the join key's
				// matched NDV, which is positive whenever it caps.
				h, r := lazy[src].Scale(a), ref[src].Scale(a)
				if b > 0 {
					h.ndvCap = b
					r.NDV = math.Min(r.NDV, b)
				}
				lazy, ref = append(lazy, h), append(ref, r)
			case opFilterRange:
				lo := 0.0
				if bs := ref[src].Buckets; len(bs) > 0 {
					lo = bs[0].Lo.AsFloat()
				}
				lazy = append(lazy, lazy[src].FilterRange(lo+a, lo+b))
				ref = append(ref, ref[src].FilterRange(lo+a, lo+b))
			case opRead:
				lazy[src].NDV()
			}
		}
		// Back to front: a node's first read materialises its sources, so
		// SkewRatio meets both unmaterialised and materialised nodes.
		for i := len(lazy) - 1; i >= 0; i-- {
			skew := lazy[i].SkewRatio()
			if msg := sameHist(lazy[i], ref[i]); msg != "" {
				t.Fatalf("node %d of %d (catalog column %s): lazy Scale differs from the eager reference: %s",
					i, len(lazy), cs.ColName, msg)
			}
			want := ref[i].SkewRatio()
			for _, got := range []float64{skew, lazy[i].skewRatio()} { // cached, then recomputed
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("node %d of %d (catalog column %s): SkewRatio %v, eager reference %v",
						i, len(lazy), cs.ColName, got, want)
				}
			}
		}
	})
}

// sameHist reports how h differs from r bit for bit, or "".
func sameHist(h *Histogram, r *refHistogram) string {
	bits := math.Float64bits
	switch {
	case h.Len() != len(r.Buckets) || len(h.Buckets()) != len(r.Buckets):
		return fmt.Sprintf("%d/%d buckets, want %d", h.Len(), len(h.Buckets()), len(r.Buckets))
	case bits(h.NDV()) != bits(r.NDV):
		return fmt.Sprintf("NDV %v, want %v", h.NDV(), r.NDV)
	case bits(h.NullFrac()) != bits(r.NullFrac):
		return fmt.Sprintf("NullFrac %v, want %v", h.NullFrac(), r.NullFrac)
	}
	for i, b := range h.Buckets() {
		rb := r.Buckets[i]
		if bits(b.Rows) != bits(rb.Rows) || bits(b.Distincts) != bits(rb.Distincts) ||
			b.Lo.Compare(rb.Lo) != 0 || b.Hi.Compare(rb.Hi) != 0 {
			return fmt.Sprintf("bucket %d %+v, want %+v", i, b, rb)
		}
	}
	return ""
}
