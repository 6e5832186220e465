package stats

import "math"

// Pearson returns the Pearson product-moment correlation coefficient of two
// equal-length vectors, in [−1, 1].
//
// Degenerate cases: if either vector has zero variance the coefficient is
// undefined; we return NaN and let callers decide (the forwarding detector
// treats NaN as "no evidence of change" when the vectors are proportional
// and as incomparable otherwise).
func Pearson(x, y []float64) float64 {
	n := len(x)
	if n == 0 || n != len(y) {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
