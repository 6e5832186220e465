package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Stddev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Stddev = %v, want 2", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Stddev(nil)) {
		t.Error("empty Mean/Stddev should be NaN")
	}
}

func TestDescribe(t *testing.T) {
	d := Describe([]float64{1, 2, 3, 4, 5})
	if d.N != 5 || d.Min != 1 || d.Max != 5 || d.Median != 3 {
		t.Errorf("Describe = %+v", d)
	}
	empty := Describe(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Errorf("empty Describe = %+v", empty)
	}
}

func TestCountAbove(t *testing.T) {
	if got := CountAbove([]float64{1, 5, 10, 20}, 5); got != 2 {
		t.Errorf("CountAbove = %d, want 2", got)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yPos); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson positive = %v, want 1", got)
	}
	if got := Pearson(x, yNeg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson negative = %v, want -1", got)
	}
	if !math.IsNaN(Pearson(x, []float64{1, 1, 1, 1, 1})) {
		t.Error("Pearson with constant vector should be NaN")
	}
	if !math.IsNaN(Pearson(x, []float64{1, 2})) {
		t.Error("Pearson with mismatched lengths should be NaN")
	}
	// Paper's worked example (§5.2.2): reference [10,100,0,5] vs observed
	// [10,1,89,30] has ρ ≈ −0.6.
	ref := []float64{10, 100, 0, 5}
	cur := []float64{10, 1, 89, 30}
	if got := Pearson(cur, ref); !almostEqual(got, -0.6, 0.005) {
		t.Errorf("paper example ρ = %v, want ≈ -0.6", got)
	}
}

func TestPearsonRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	f := func(n uint8) bool {
		m := int(n%50) + 2
		x := make([]float64, m)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.Float64() * 100
			y[i] = rng.Float64() * 100
		}
		r := Pearson(x, y)
		return math.IsNaN(r) || (r >= -1.0000001 && r <= 1.0000001)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizedEntropy(t *testing.T) {
	tests := []struct {
		name   string
		counts []int
		want   float64
	}{
		{"even", []int{10, 10, 10, 10}, 1},
		{"concentrated", []int{100, 0, 0, 0}, 0},
		{"empty", nil, 0},
		{"zeros", []int{0, 0}, 0},
		{"single", []int{5}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := NormalizedEntropy(tt.counts); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("NormalizedEntropy(%v) = %v, want %v", tt.counts, got, tt.want)
			}
		})
	}
	// Unbalanced should be strictly between 0 and 1.
	h := NormalizedEntropy([]int{90, 5, 3, 2})
	if h <= 0 || h >= 1 {
		t.Errorf("unbalanced entropy = %v, want in (0,1)", h)
	}
	// The paper's §4.3 scenario: 90 probes in one AS of 5 → low entropy ≤ 0.5.
	h = NormalizedEntropy([]int{90, 4, 3, 2, 1})
	if h > 0.5 {
		t.Errorf("90-of-100 concentration entropy = %v, want ≤ 0.5", h)
	}
}

func TestEntropyRangeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
		}
		h := NormalizedEntropy(counts)
		return h >= 0 && h <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	// median = 2, abs dev = {1,1,0,0,2,4,7}, median = 1
	if got := MAD(xs); !almostEqual(got, 1, 1e-12) {
		t.Errorf("MAD = %v, want 1", got)
	}
	if !math.IsNaN(MAD(nil)) {
		t.Error("MAD of empty should be NaN")
	}
	if got := MAD([]float64{5, 5, 5}); got != 0 {
		t.Errorf("MAD of constant = %v, want 0", got)
	}
}

func TestMagnitude(t *testing.T) {
	ref := []float64{0, 0, 1, 0, 0, 2, 0, 1, 0, 0}
	// A value equal to the window median scores 0.
	if got := Magnitude(Median(ref), ref); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Magnitude at median = %v, want 0", got)
	}
	// Larger deviations score monotonically larger.
	m1 := Magnitude(10, ref)
	m2 := Magnitude(100, ref)
	if !(m2 > m1 && m1 > 0) {
		t.Errorf("Magnitude not monotone: %v, %v", m1, m2)
	}
	// Constant window: denominator collapses to 1, score is x − median.
	if got := Magnitude(7, []float64{3, 3, 3}); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Magnitude constant window = %v, want 4", got)
	}
	if !math.IsNaN(Magnitude(1, nil)) {
		t.Error("Magnitude with empty window should be NaN")
	}
}

func TestEWMA(t *testing.T) {
	e := MakeEWMA(0.1, 3)
	// During warm-up, reference is the running median.
	if got := e.Observe(10); got != 10 {
		t.Errorf("warmup 1 = %v, want 10", got)
	}
	if got := e.Observe(20); got != 15 {
		t.Errorf("warmup 2 = %v, want 15", got)
	}
	if got := e.Observe(30); got != 20 {
		t.Errorf("warmup 3 = %v, want 20 (median of 10,20,30)", got)
	}
	if !e.Primed() {
		t.Fatal("EWMA should be primed after 3 observations")
	}
	// Next observation updates exponentially: 0.1*120 + 0.9*20 = 30.
	if got := e.Observe(120); !almostEqual(got, 30, 1e-12) {
		t.Errorf("post-warmup = %v, want 30", got)
	}
	// Small alpha resists outliers: value stays near 30, far below 1000.
	v := e.Observe(1000)
	if v > 130 {
		t.Errorf("EWMA too sensitive to outlier: %v", v)
	}
}

func TestEWMAWarmupClamp(t *testing.T) {
	e := MakeEWMA(0.5, 0) // clamps to 1
	e.Observe(4)
	if !e.Primed() {
		t.Error("warmup ≤ 1 should prime after first observation")
	}
	if got := e.Observe(8); !almostEqual(got, 6, 1e-12) {
		t.Errorf("got %v, want 6", got)
	}
}

func TestSmoothInto(t *testing.T) {
	ref := []float64{10, 100, 0}
	cur := []float64{20, 0, 50}
	SmoothInto(ref, cur, 0.1)
	want := []float64{11, 90, 5}
	for i := range ref {
		if !almostEqual(ref[i], want[i], 1e-12) {
			t.Errorf("SmoothInto[%d] = %v, want %v", i, ref[i], want[i])
		}
	}
}

func TestTrimmed(t *testing.T) {
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}
	tr := Trimmed(xs, 0.1)
	if len(tr) != 8 {
		t.Fatalf("Trimmed len = %d, want 8", len(tr))
	}
	if tr[0] != 1 || tr[len(tr)-1] != 8 {
		t.Errorf("Trimmed = %v, extremes should be removed", tr)
	}
}
