package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

func benchSamples(n int) []float64 {
	rng := rand.New(rand.NewPCG(1, 1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 5 + rng.NormFloat64()*12
	}
	return xs
}

func BenchmarkMedianWilson1k(b *testing.B) {
	xs := benchSamples(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MedianWilson(xs, Z95)
	}
}

func BenchmarkMedianWilsonSorted1k(b *testing.B) {
	xs := sortedCopy(benchSamples(1000))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MedianWilsonSorted(xs, Z95)
	}
}

func BenchmarkMedianWilsonSelect1k(b *testing.B) {
	xs := benchSamples(1000)
	buf := make([]float64, len(xs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, xs)
		MedianWilsonSelect(buf, Z95)
	}
}

// rttSamples draws a differential-RTT-like vector: a few-millisecond
// log-normal body, one sample in fifty far out in the tail, three decimals
// as on the wire (so duplicates occur).
func rttSamples(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		x := 2 + 3*math.Exp(0.8*rng.NormFloat64())
		if rng.IntN(50) == 0 {
			x += 200 * rng.ExpFloat64()
		}
		xs[i] = math.Round(x*1000) / 1000
	}
	return xs
}

// BenchmarkMedianWilsonSelect sizes the bin-close kernel at the link-bin
// sizes the fixtures actually close (98 % of ddos link-bins hold 64–511
// samples, none of either fixture 4096), on heavy-tailed vectors. Each
// iteration selects on a different vector of a 64 k-sample pool, so a branch
// predictor cannot learn one input's comparison outcomes — the cost a
// branching partition pays on live data.
func BenchmarkMedianWilsonSelect(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(5, uint64(n)))
			pool := make([][]float64, 65536/n)
			for i := range pool {
				pool[i] = rttSamples(rng, n)
			}
			buf := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, pool[i%len(pool)])
				MedianWilsonSelect(buf, Z95)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/sample")
		})
	}
}

func BenchmarkRadixSortUint64_1k(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	src := make([]uint64, 1000)
	for i := range src {
		src[i] = rng.Uint64() & 0xffffffffffff // 48-bit keys: two skipped passes
	}
	keys := make([]uint64, len(src))
	var tmp []uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(keys, src)
		tmp = RadixSortUint64(keys, tmp)
	}
}

func BenchmarkPearson(b *testing.B) {
	x := benchSamples(64)
	y := benchSamples(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pearson(x, y)
	}
}

func BenchmarkMagnitudeWeekWindow(b *testing.B) {
	win := benchSamples(168)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Magnitude(42, win)
	}
}

func BenchmarkNormalizedEntropy(b *testing.B) {
	counts := []int{90, 4, 3, 2, 1, 7, 9, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NormalizedEntropy(counts)
	}
}
