package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestWilsonKnownValues(t *testing.T) {
	// Classic textbook check: n=10, p=0.5, z=1.96 → approx (0.237, 0.763).
	lo, hi := Wilson(10, 0.5, Z95)
	if !almostEqual(lo, 0.2366, 1e-3) || !almostEqual(hi, 0.7634, 1e-3) {
		t.Errorf("Wilson(10, .5) = (%v, %v), want ≈ (0.237, 0.763)", lo, hi)
	}
	// Larger n narrows the interval around p.
	lo2, hi2 := Wilson(1000, 0.5, Z95)
	if hi2-lo2 >= hi-lo {
		t.Error("Wilson interval should narrow as n grows")
	}
}

func TestWilsonEdgeCases(t *testing.T) {
	lo, hi := Wilson(0, 0.5, Z95)
	if lo != 0 || hi != 1 {
		t.Errorf("Wilson(0) = (%v,%v), want vacuous (0,1)", lo, hi)
	}
	lo, hi = Wilson(5, 0, Z95)
	if lo != 0 || hi <= 0 {
		t.Errorf("Wilson(5, p=0) = (%v,%v): lower must clamp to 0, upper > 0", lo, hi)
	}
	lo, hi = Wilson(5, 1, Z95)
	if hi != 1 || lo >= 1 {
		t.Errorf("Wilson(5, p=1) = (%v,%v): upper must clamp to 1, lower < 1", lo, hi)
	}
}

func TestWilsonBoundsProperty(t *testing.T) {
	f := func(n uint8, p01 uint16, zRaw uint8) bool {
		n1 := int(n%200) + 1
		p := float64(p01%1001) / 1000
		z := 0.5 + float64(zRaw%30)/10 // z in [0.5, 3.5)
		lo, hi := Wilson(n1, p, z)
		return lo >= 0 && hi <= 1 && lo <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianWilson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ci := MedianWilson(xs, Z95)
	if !ci.Valid() || ci.N != 10 {
		t.Fatalf("expected valid CI with N=10, got %+v", ci)
	}
	if ci.Median != 5.5 {
		t.Errorf("Median = %v, want 5.5", ci.Median)
	}
	if ci.Lower > ci.Median || ci.Upper < ci.Median {
		t.Errorf("CI (%v, %v) must bracket the median %v", ci.Lower, ci.Upper, ci.Median)
	}
	if ci.Lower < 1 || ci.Upper > 10 {
		t.Errorf("CI (%v, %v) must lie within the sample range", ci.Lower, ci.Upper)
	}
}

func TestMedianWilsonSingleSample(t *testing.T) {
	ci := MedianWilson([]float64{42}, Z95)
	if ci.Median != 42 || ci.Lower != 42 || ci.Upper != 42 || ci.N != 1 {
		t.Errorf("single sample CI = %+v, want degenerate at 42", ci)
	}
}

func TestMedianWilsonEmpty(t *testing.T) {
	ci := MedianWilson(nil, Z95)
	if ci.Valid() {
		t.Error("empty CI should be invalid")
	}
}

// The CI should contain the true median ~95% of the time: check coverage on
// repeated normal samples.
func TestMedianWilsonCoverage(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const trials = 400
	const n = 99
	covered := 0
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() // true median 0
		}
		ci := MedianWilson(xs, Z95)
		if ci.Lower <= 0 && 0 <= ci.Upper {
			covered++
		}
	}
	cov := float64(covered) / trials
	if cov < 0.90 || cov > 0.995 {
		t.Errorf("coverage = %.3f, want ≈ 0.95", cov)
	}
}

func TestMedianWilsonOrderProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		ci := MedianWilson(xs, Z95)
		s := make([]float64, len(xs))
		copy(s, xs)
		sort.Float64s(s)
		return ci.Lower <= ci.Median && ci.Median <= ci.Upper &&
			ci.Lower >= s[0] && ci.Upper <= s[len(s)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeanCI(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ci := MeanCI(xs, Z95)
	if !almostEqual(ci.Median, 3, 1e-12) {
		t.Errorf("MeanCI center = %v, want 3", ci.Median)
	}
	if ci.Lower >= ci.Upper {
		t.Error("MeanCI must have positive width")
	}
	if MeanCI(nil, Z95).Valid() {
		t.Error("empty MeanCI should be invalid")
	}
}
