package dxl

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestRoundedStringMatchesFormatFloat: the integer path renders every
// estimate exactly as strconv.FormatFloat(x, 'f', 0, 64), ties and the
// 2^53 boundary included.
func TestRoundedStringMatchesFormatFloat(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 0.5, 1.5, 2.5, 0.49999999999999994,
		1<<52 + 0.5, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1e300, -0.4, -2.5,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		vals = append(vals, r.ExpFloat64()*math.Pow(10, float64(r.Intn(20))))
	}
	for _, x := range vals {
		if got, want := roundedString(x), strconv.FormatFloat(x, 'f', 0, 64); got != want {
			t.Errorf("roundedString(%v) = %s, want %s", x, got, want)
		}
	}
}
