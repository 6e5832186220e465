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
// The pipeline scores windows with MagnitudeInPlace; this copying form is
// its reference (FuzzMagnitudeWindow).
func Magnitude(x float64, ref []float64) float64 {
	if len(ref) == 0 {
		return math.NaN()
	}
	return (x - Median(ref)) / (1 + MADScale*MAD(ref))
}

// MagnitudeInPlace is Magnitude computed inside ref, which it reorders:
// the median and then the MAD are selected (SelectKths) rather than sorted,
// with no allocation. It equals Magnitude(x, ref) bit for bit unless ref
// holds a NaN, or both x and an element of ref are −0 — selection and sort
// may then leave different NaN payloads or zero signs at the median rank.
// Every deviation |v − median| is non-negative, so the MAD's order
// statistics are the same bits whichever order they are selected in.
func MagnitudeInPlace(x float64, ref []float64) float64 {
	if len(ref) == 0 {
		return math.NaN()
	}
	m := medianInPlace(ref)
	for i, v := range ref {
		ref[i] = math.Abs(v - m)
	}
	return (x - m) / (1 + MADScale*medianInPlace(ref))
}

// medianInPlace is Median by selection: it places the one or two middle
// ranks where a sort would, and medianSorted reads only those.
func medianInPlace(xs []float64) float64 {
	SelectKths(xs, (len(xs)-1)/2, len(xs)/2)
	return medianSorted(xs)
}
