package stats

import "math"

// MADScale is the consistency constant that makes the median absolute
// deviation comparable to a standard deviation under normality
// (1/Φ⁻¹(0.75) ≈ 1.4826). It appears in Eq 10 of the paper.
const MADScale = 1.4826

// MAD returns the median absolute deviation of xs around its median:
// median(|x − median(xs)|). It returns NaN for an empty slice.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// Magnitude computes the paper's robust anomaly magnitude (Eq 10):
//
//	mag(x) = (x − median(ref)) / (1 + 1.4826·MAD(ref))
//
// where ref is the reference window (one sliding week in §6). The +1 in the
// denominator keeps the score bounded when the window is almost constant.
// An empty reference window yields NaN.
func Magnitude(x float64, ref []float64) float64 {
	if len(ref) == 0 {
		return math.NaN()
	}
	return (x - Median(ref)) / (1 + MADScale*MAD(ref))
}
