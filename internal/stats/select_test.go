package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// feqt is the test-side equivalence for selected values: equal under ==
// (which identifies -0/+0) or both NaN. This is the contract SelectKths
// documents — bit-level NaN payloads and zero signs are interchangeable
// under sort.Float64s' order, so the oracle itself does not pin them.
func feqt(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// checkSelected runs SelectKths on a copy of xs and verifies every
// requested rank against the fully sorted oracle, plus the partition
// invariant around each rank.
func checkSelected(t *testing.T, xs []float64, ks ...int) {
	t.Helper()
	got := append([]float64(nil), xs...)
	SelectKths(got, ks...)
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	for _, k := range ks {
		if !feqt(got[k], want[k]) {
			t.Fatalf("SelectKths(%v, %v): rank %d = %v, sorted oracle has %v", xs, ks, k, got[k], want[k])
		}
		for i := 0; i < k; i++ {
			if fless(got[k], got[i]) {
				t.Fatalf("SelectKths(%v, %v): got[%d]=%v > got[%d]=%v breaks partition", xs, ks, i, got[i], k, got[k])
			}
		}
		for i := k + 1; i < len(got); i++ {
			if fless(got[i], got[k]) {
				t.Fatalf("SelectKths(%v, %v): got[%d]=%v < got[%d]=%v breaks partition", xs, ks, i, got[i], k, got[k])
			}
		}
	}
	// The partial order must still be a permutation of the input.
	perm := append([]float64(nil), got...)
	sort.Float64s(perm)
	for i := range perm {
		if !feqt(perm[i], want[i]) {
			t.Fatalf("SelectKths(%v, %v) is not a permutation: sorted output %v vs %v", xs, ks, perm, want)
		}
	}
}

var (
	nan  = math.NaN()
	pinf = math.Inf(1)
	ninf = math.Inf(-1)
)

// edgeInputs is the table the edge suite and the oracle comparisons share:
// tiny n, all-equal, pre-sorted, reverse-sorted, duplicates, non-finite.
var edgeInputs = [][]float64{
	{},
	{1},
	{2, 1},
	{1, 2},
	{3, 3, 3},
	{5, 5, 5, 5, 5, 5, 5, 5},
	{1, 2, 3, 4, 5, 6, 7},
	{7, 6, 5, 4, 3, 2, 1},
	{2, 1, 2, 1, 2, 1, 2, 1, 2},
	{-1.5, 0, 1.5, -1.5, 0, 1.5},
	{pinf, ninf, 0, pinf, ninf},
	{nan, 1, 2},
	{1, nan, 2, nan},
	{nan, nan, nan},
	{nan, pinf, ninf, 0, -0.0, nan, 1e300, -1e300},
	{math.Copysign(0, -1), 0, math.Copysign(0, -1), 0},
	{1e-308, -1e-308, 5e-324, -5e-324, 0},
}

func TestSelectKthsEdges(t *testing.T) {
	for _, xs := range edgeInputs {
		if len(xs) == 0 {
			SelectKths(nil) // no ranks on empty input: must not panic
			continue
		}
		// Every single rank, and a few multi-rank combinations.
		for k := range xs {
			checkSelected(t, xs, k)
		}
		checkSelected(t, xs, 0, len(xs)-1)
		checkSelected(t, xs, len(xs)/2, 0, len(xs)-1, len(xs)/2) // dupes + unsorted ranks
	}
}

func TestSelectKthsRankPanics(t *testing.T) {
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SelectKths rank %d on len 3: expected panic", k)
				}
			}()
			SelectKths([]float64{1, 2, 3}, k)
		}()
	}
}

func TestSelectKthsLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 5000
	patterns := map[string]func(i int) float64{
		"random":    func(int) float64 { return rng.NormFloat64() * 100 },
		"sorted":    func(i int) float64 { return float64(i) },
		"reverse":   func(i int) float64 { return float64(n - i) },
		"constant":  func(int) float64 { return 42 },
		"two-value": func(i int) float64 { return float64(i & 1) },
		"organpipe": func(i int) float64 { return float64(min(i, n-i)) },
		"dup-heavy": func(int) float64 { return float64(rng.Intn(8)) },
	}
	for name, gen := range patterns {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = gen(i)
		}
		for _, ks := range [][]int{{0}, {n - 1}, {n / 2}, {1234, 2500, 3777}, {17, 18, 19, 20}} {
			got := append([]float64(nil), xs...)
			SelectKths(got, ks...)
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			for _, k := range ks {
				if !feqt(got[k], want[k]) {
					t.Fatalf("%s: rank %d = %v, want %v", name, k, got[k], want[k])
				}
			}
		}
	}
}

// adversarialShapes are the inputs that break a careless Lomuto partition:
// duplicates of the pivot all land on one side (all-equal, two-valued,
// sawtooth), and monotone or organ-pipe runs defeat a naive pivot choice.
var adversarialShapes = []struct {
	name string
	gen  func(i, n int) float64
}{
	{"all-equal", func(i, n int) float64 { return 42 }},
	{"two-valued", func(i, n int) float64 { return float64(i & 1) }},
	{"two-blocks", func(i, n int) float64 { return float64(2 * i / n) }},
	{"sorted", func(i, n int) float64 { return float64(i) }},
	{"reverse", func(i, n int) float64 { return float64(n - i) }},
	{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-1-i)) }},
	{"sawtooth", func(i, n int) float64 { return float64(i % 7) }},
	{"long-sawtooth", func(i, n int) float64 { return float64(i % (n/4 + 1)) }},
}

var adversarialSizes = []int{47, 48, 600, 601, 4096}

func adversarialInput(gen func(i, n int) float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = gen(i, n)
	}
	return xs
}

// TestSelectAdversarialWorkBound holds the kernel to linear work where a
// Lomuto-style partition is weakest: at every Wilson rank set the selected
// values equal the oracle's, the partition and equal-sweep loops pass over at
// most 12·n elements, and the sort.Float64s fallback is never reached.
func TestSelectAdversarialWorkBound(t *testing.T) {
	for _, sh := range adversarialShapes {
		for _, n := range adversarialSizes {
			xs := adversarialInput(sh.gen, n)
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			for _, z := range []float64{0, Z95, 10} {
				lo, hi := wilsonRanks(n, z)
				ks := []int{lo, (n - 1) / 2, n / 2, hi}
				checkSelected(t, xs, ks...)

				sort.Ints(ks)
				uniq := ks[:1]
				for _, k := range ks[1:] {
					if k != uniq[len(uniq)-1] {
						uniq = append(uniq, k)
					}
				}
				got := append([]float64(nil), xs...)
				var w selectWork
				w.selectRanks(got, 0, n-1, uniq)
				for _, k := range uniq {
					if got[k] != want[k] {
						t.Fatalf("%s n=%d z=%v: rank %d = %v, oracle %v", sh.name, n, z, k, got[k], want[k])
					}
				}
				if w.fallbacks != 0 || w.visited > 12*n {
					t.Errorf("%s n=%d z=%v: visited %d elements (bound %d), %d sort fallbacks",
						sh.name, n, z, w.visited, 12*n, w.fallbacks)
				}
			}
		}
	}
}

// TestMedianWilsonSelectMatchesSorted pins the selection path to the
// sorted oracle over the edge table, random inputs, and the Wilson-rank
// clamp region (n = 1..40 where floor/ceil ranks hit the ends).
func TestMedianWilsonSelectMatchesSorted(t *testing.T) {
	check := func(xs []float64, z float64) {
		t.Helper()
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		want := MedianWilsonSorted(s, z)
		buf := append([]float64(nil), xs...)
		got := MedianWilsonSelect(buf, z)
		if got.N != want.N || !feqt(got.Median, want.Median) || !feqt(got.Lower, want.Lower) || !feqt(got.Upper, want.Upper) {
			t.Fatalf("MedianWilsonSelect(%v, z=%v) = %+v, oracle %+v", xs, z, got, want)
		}
	}
	zs := []float64{0, 0.5, Z95, 3, 10}
	for _, xs := range edgeInputs {
		for _, z := range zs {
			check(xs, z)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 40; n++ { // small n: ranks clamp at the ends
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(rng.NormFloat64()*50) / 4 // duplicates likely
		}
		for _, z := range zs {
			check(xs, z)
		}
	}
	for _, n := range []int{100, 999, 1000, 4096} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 250
		}
		check(xs, Z95)
	}
}

// FuzzSelectVsSort is the differential fuzzer of the tentpole: arbitrary
// float bit patterns (duplicates, NaN payloads, ±Inf, subnormals, tiny n)
// through SelectKths and MedianWilsonSelect vs the sort.Float64s oracle.
func FuzzSelectVsSort(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(0))
	seed := func(xs []float64, r1, r2 uint8) {
		b := make([]byte, 0, len(xs)*8)
		for _, x := range xs {
			u := math.Float64bits(x)
			for s := 0; s < 64; s += 8 {
				b = append(b, byte(u>>s))
			}
		}
		f.Add(b, r1, r2)
	}
	for _, xs := range edgeInputs {
		seed(xs, 0, uint8(len(xs)))
	}
	seed([]float64{nan, nan, 1, 1, nan, ninf, pinf, ninf}, 3, 200)
	// The adversarial shapes at n ≤ 601 are checked in under
	// testdata/fuzz/FuzzSelectVsSort; a 4096-element seed file is 130 kB of
	// \x00 escapes, so that size is seeded from here. Plain go test runs both.
	for _, sh := range adversarialShapes {
		seed(adversarialInput(sh.gen, 4096), 2, 200)
	}

	f.Fuzz(func(t *testing.T, data []byte, r1, r2 uint8) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		if n > 1<<14 {
			n = 1 << 14
		}
		xs := make([]float64, n)
		for i := range xs {
			var u uint64
			for s := 0; s < 8; s++ {
				u |= uint64(data[i*8+s]) << (8 * s)
			}
			xs[i] = math.Float64frombits(u)
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)

		ks := []int{int(r1) % n, int(r2) % n}
		got := append([]float64(nil), xs...)
		SelectKths(got, ks...)
		for _, k := range ks {
			if !feqt(got[k], want[k]) {
				t.Fatalf("rank %d: select %v (bits %#x), oracle %v (bits %#x)",
					k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
			}
		}

		z := float64(r1%4) * 0.98 // 0, 0.98, 1.96, 2.94
		wantCI := MedianWilsonSorted(want, z)
		gotCI := MedianWilsonSelect(append([]float64(nil), xs...), z)
		if gotCI.N != wantCI.N || !feqt(gotCI.Median, wantCI.Median) ||
			!feqt(gotCI.Lower, wantCI.Lower) || !feqt(gotCI.Upper, wantCI.Upper) {
			t.Fatalf("MedianWilson z=%v: select %+v, oracle %+v", z, gotCI, wantCI)
		}

		// The one or two ranks a type-7 q-quantile interpolates between,
		// selected in one call as a quantile would select them.
		pos := float64(r2) / 255 * float64(n-1)
		ks = []int{int(math.Floor(pos))}
		if hi := int(math.Ceil(pos)); hi != ks[0] {
			ks = append(ks, hi)
		}
		got = append(got[:0], xs...)
		SelectKths(got, ks...)
		for _, k := range ks {
			if !feqt(got[k], want[k]) {
				t.Fatalf("quantile rank %d of %v: select %v, oracle %v", k, ks, got[k], want[k])
			}
		}
	})
}
