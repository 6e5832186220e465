package stats

import (
	"math"
	"sort"
)

// Z95 is the standard normal quantile for a two-sided 95% confidence level,
// the value the paper plugs into the Wilson score (§4.2.2).
const Z95 = 1.96

// Wilson returns the lower and upper bounds of the Wilson score interval for
// a binomial proportion: n trials, success probability p, normal quantile z.
// Both bounds lie in [0, 1]. For n == 0 it returns (0, 1), the vacuous
// interval.
//
// This is Eq 5 of the paper. With p = 0.5 it yields the rank bounds of a
// distribution-free confidence interval for the median.
func Wilson(n int, p, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := p + z2/(2*nf)
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = (center - half) / denom
	hi = (center + half) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// MedianCI is a median estimate with a distribution-free confidence interval
// derived from order statistics via the Wilson score. Lower ≤ Median ≤ Upper
// always holds for n ≥ 1.
type MedianCI struct {
	Median float64
	Lower  float64
	Upper  float64
	N      int // number of samples the interval is based on
}

// Valid reports whether the interval was computed from at least one sample.
func (ci MedianCI) Valid() bool { return ci.N > 0 }

// Overlaps reports whether two confidence intervals intersect. Following
// Schenker & Gentleman (cited in §4.2.3), non-overlap is the paper's
// criterion for a statistically significant median difference.
func (ci MedianCI) Overlaps(other MedianCI) bool {
	return ci.Lower <= other.Upper && other.Lower <= ci.Upper
}

// MedianWilson computes the median of xs together with its Wilson-score
// confidence interval at the given z (use Z95 for the paper's 95% level).
// The input is not modified. For an empty slice it returns a zero MedianCI
// with N == 0.
//
// The interval is obtained by converting the Wilson bounds for p = 0.5 into
// ranks l = floor(n·wl) and u = ceil(n·wu)−1 and reading the corresponding
// order statistics, clamped to valid indices (Newcombe's recommendation for
// small n, §4.2.2).
func MedianWilson(xs []float64, z float64) MedianCI {
	if len(xs) == 0 {
		return MedianCI{}
	}
	s := sortedCopy(xs)
	return MedianWilsonSorted(s, z)
}

// MedianWilsonSorted is MedianWilson for an already ascending-sorted slice.
// It is the executable oracle for MedianWilsonSelect: the selection kernel
// must return exactly what this returns on the sorted input, and
// FuzzSelectVsSort enforces it.
func MedianWilsonSorted(sorted []float64, z float64) MedianCI {
	n := len(sorted)
	if n == 0 {
		return MedianCI{}
	}
	lo, hi := wilsonRanks(n, z)
	return MedianCI{
		Median: medianSorted(sorted),
		Lower:  sorted[lo],
		Upper:  sorted[hi],
		N:      n,
	}
}

// wilsonRanks converts the Wilson bounds for p = 0.5 into the order-statistic
// ranks l = floor(n·wl) and u = ceil(n·wu)−1 of the median confidence
// interval, clamped to valid indices (Newcombe's recommendation for small n,
// §4.2.2). Requires n ≥ 1; always returns 0 ≤ lo ≤ hi ≤ n−1.
func wilsonRanks(n int, z float64) (lo, hi int) {
	wl, wu := Wilson(n, 0.5, z)
	lo = int(math.Floor(float64(n) * wl))
	hi = int(math.Ceil(float64(n)*wu)) - 1
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// MeanCI is the parametric (CLT, standard-error) confidence interval around
// the arithmetic mean. It is the baseline the paper rejects in §4.2.2
// because RTT outliers inflate it; we keep it for the ablation benchmarks.
func MeanCI(xs []float64, z float64) MedianCI {
	n := len(xs)
	if n == 0 {
		return MedianCI{}
	}
	m := Mean(xs)
	se := Stddev(xs) / math.Sqrt(float64(n))
	return MedianCI{Median: m, Lower: m - z*se, Upper: m + z*se, N: n}
}

// insertSorted inserts v into a sorted slice, keeping it sorted.
// It is used by streaming consumers that maintain per-link sample buffers.
func insertSorted(s []float64, v float64) []float64 {
	i := sort.SearchFloat64s(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// SortedSamples is a growable, always-sorted sample buffer for computing
// order statistics incrementally within a time bin.
// The zero value is ready to use.
type SortedSamples struct {
	s []float64
}

// Add inserts one sample.
func (b *SortedSamples) Add(v float64) { b.s = insertSorted(b.s, v) }

// Len returns the number of samples.
func (b *SortedSamples) Len() int { return len(b.s) }

// Reset empties the buffer but keeps its capacity for reuse.
func (b *SortedSamples) Reset() { b.s = b.s[:0] }

// Values returns the sorted backing slice. The caller must not modify it.
func (b *SortedSamples) Values() []float64 { return b.s }

// MedianWilson computes the median confidence interval of the buffer.
func (b *SortedSamples) MedianWilson(z float64) MedianCI {
	return MedianWilsonSorted(b.s, z)
}
