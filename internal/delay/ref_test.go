package delay

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"

	"pinpoint/internal/stats"
)

// ci3 is a reference observation whose median is x and whose CI is x ± 1.
func ci3(x float64) stats.MedianCI {
	return stats.MedianCI{Median: x, Lower: x - 1, Upper: x + 1, N: 9}
}

// TestLinkRef: the reference is seeded with the median of the first three
// observations, is valid only after the third, then follows Eq 7 with the
// detector's α and barely moves on an outlier.
func TestLinkRef(t *testing.T) {
	var r linkRef
	for i, x := range []float64{10, 30, 20} {
		if r.ci().Valid() {
			t.Fatalf("reference valid after %d observations, want warming up", i)
		}
		r.observe(ci3(x))
	}
	got := r.ci()
	if want := (stats.MedianCI{Median: 20, Lower: 19, Upper: 21, N: 1}); got != want {
		t.Fatalf("seeded reference = %+v, want the medians %+v", got, want)
	}
	// 0.01·120 + 0.99·20 = 21.
	r.observe(ci3(120))
	if got := r.ci().Median; !almostEq(got, 21, 1e-12) {
		t.Errorf("post-warm-up median = %v, want 21", got)
	}
	// A small α resists outliers: the reference stays near 21, far below 1000.
	r.observe(ci3(1000))
	if got := r.ci().Median; got > 31 {
		t.Errorf("reference too sensitive to an outlier: %v", got)
	}
}

// TestLinkRefLayout pins the per-link slot: a 3-value reference with its
// warm-up, no per-component smoother and no cached address pair.
func TestLinkRefLayout(t *testing.T) {
	if n := unsafe.Sizeof(linkState{}); n > 56 {
		t.Errorf("linkState is %d bytes, want ≤ 56", n)
	}
}

// ewma is the smoother the three reference components each used to be: its
// own α, a warm-up buffer whose median seeds the value, then Eq 7.
type ewma struct {
	alpha  float64
	warmup []float64
	value  float64
	primed bool
}

func (e *ewma) observe(x float64) {
	if !e.primed {
		e.warmup = append(e.warmup, x)
		e.value = stats.Median(e.warmup)
		if len(e.warmup) >= warmupBins {
			e.primed = true
			e.warmup = nil
		}
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// TestLinkRefMatchesEWMA replays 10⁴ random CI triples, in runs of one to
// ten observations per link, through a linkRef and through three
// independent smoothers; every reference must be the same bits. Draws
// include ties, signed zeros and NaNs, which decide the warm-up median's
// order.
func TestLinkRefMatchesEWMA(t *testing.T) {
	rng := rand.New(rand.NewPCG(38, 38))
	draw := func() float64 {
		switch rng.IntN(20) {
		case 0:
			return math.NaN()
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return 0
		case 3, 4, 5:
			return float64(rng.IntN(3)) // ties
		default:
			return rng.NormFloat64() * 50
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for n := 0; n < 10000; {
		var r linkRef
		comps := [3]ewma{{alpha: alpha}, {alpha: alpha}, {alpha: alpha}}
		for k := 1 + rng.IntN(10); k > 0 && n < 10000; k, n = k-1, n+1 {
			ci := stats.MedianCI{Median: draw(), Lower: draw(), Upper: draw()}
			r.observe(ci)
			for c, x := range [3]float64{ci.Median, ci.Lower, ci.Upper} {
				comps[c].observe(x)
			}
			got := r.ci()
			if got.Valid() != comps[0].primed {
				t.Fatalf("observation %d: reference valid = %v, smoother primed = %v", n, got.Valid(), comps[0].primed)
			}
			if !got.Valid() {
				continue
			}
			if !same(got.Median, comps[0].value) || !same(got.Lower, comps[1].value) || !same(got.Upper, comps[2].value) {
				t.Fatalf("observation %d: reference %v/%v/%v, smoothers %v/%v/%v", n,
					got.Median, got.Lower, got.Upper, comps[0].value, comps[1].value, comps[2].value)
			}
		}
	}
}
