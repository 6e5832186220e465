package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// dist summarizes one metric's samples: the reported value is the median;
// the quartiles say how much the passes disagreed.
type dist struct {
	P25, P50, P75 float64
	N             int
}

// summarize computes the median and the quartiles the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the spread
// printed here is the one a driver recomputing it from raw values sees.
func summarize(vals []float64) dist {
	n := len(vals)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	d := dist{N: n, P50: medianSorted(s)}
	if n == 1 {
		d.P25, d.P75 = s[0], s[0]
		return d
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	d.P25, d.P75 = q(1), q(3)
	return d
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(vals []float64) float64 { return summarize(vals).P50 }

// percentile is the nearest-rank percentile of vals (p in (0,100]); 0 for
// an empty sample.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// spread is IQR/median: the noise figure behind the noisy flag and the
// compare tool's "unresolved" verdict.
func (d dist) spread() float64 {
	if d.P50 == 0 {
		return 0
	}
	return math.Abs((d.P75 - d.P25) / d.P50)
}

// cpuSeconds is the process's user+system CPU time so far (getrusage):
// cost that parallelism cannot hide.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapMB forces two collections and returns the live heap in MB. Two,
// because what a sync.Pool held (encode buffers, a megabyte here) survives
// the first in the pool's victim cache and would count as state at random.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs is the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perOp divides guarding against an empty denominator (a bypassed layer
// reports zero work, not NaN).
func perOp(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
