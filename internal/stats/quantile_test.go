package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= eps
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, math.NaN()},
		{"single", []float64{3}, 3},
		{"odd", []float64{3, 1, 2}, 2},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"duplicates", []float64{5, 5, 5, 5}, 5},
		{"negative", []float64{-3, -1, -2}, -2},
		{"unsorted big", []float64{9, 2, 7, 4, 5, 6, 3, 8, 1}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Median(tt.in)
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Median(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.75, 4},
		{1, 5},
		{0.1, 1.4},
	}
	for _, tt := range tests {
		if got := QuantileSorted(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("QuantileSorted(xs, %v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(QuantileSorted(nil, 0.5)) {
		t.Error("QuantileSorted(nil) should be NaN")
	}
	if !math.IsNaN(QuantileSorted(xs, -0.1)) || !math.IsNaN(QuantileSorted(xs, 1.1)) || !math.IsNaN(QuantileSorted(xs, math.NaN())) {
		t.Error("QuantileSorted outside [0,1] should be NaN")
	}
	if got := QuantileSorted([]float64{7}, 0.99); got != 7 {
		t.Errorf("QuantileSorted single = %v, want 7", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max of empty should be NaN")
	}
}
