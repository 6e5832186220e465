package stats

import (
	"math"
	"math/bits"
	"sort"

	"pinpoint/internal/hash"
)

// This file holds the selection kernels of the detectors' bin-close hot
// path. Closing a bin needs three order statistics per link (the median and
// the two Wilson-score rank bounds, §4.2.2); a full sort.Float64s is
// O(n log n) per link-bin just to read three ranks, while a branch-free
// quickselect over all of them finds them in O(n) expected time. The
// contract is strict:
// SelectKths places at every requested rank exactly the value an ascending
// sort.Float64s would place there, so MedianWilsonSelect returns the same
// MedianCI as MedianWilsonSorted on the sorted input — MedianWilsonSorted
// is retained unchanged as the executable oracle, and FuzzSelectVsSort
// pins kernel ≡ oracle over adversarial inputs (duplicates, NaN/±Inf,
// tiny n).

// fless is the strict weak ordering sort.Float64s sorts by: NaN values
// first, then ascending. The selection entry points realize this order by
// sweeping NaNs to the front once (nanSweep), which lets every partition
// loop below compare with bare < instead of paying a NaN test per
// comparison; fless itself remains the specification the tests check
// partition invariants against.
func fless(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// nanSweep moves every NaN to the front of xs, preserving nothing else,
// and returns their count m. Afterwards xs[:m] is exactly where
// sort.Float64s would leave the NaNs, and xs[m:] is NaN-free, so ranks
// below m are already satisfied and ranks at or above m reduce to
// selection under plain <. The common all-finite case costs one
// predictable never-taken branch per element.
func nanSweep(xs []float64) int {
	m := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[m] = xs[m], xs[i]
			m++
		}
	}
	return m
}

// SelectKths partially orders xs in place so that for every rank k in ks,
// xs[k] holds the k-th smallest element — the value sort.Float64s would
// put there — with xs[:k] ≤ xs[k] ≤ xs[k+1:] under the same NaN-first
// order. Expected time is O(n log |ks|) — O(n) when the ranks sit close
// together, as the Wilson ranks do — with no allocation; ranks must be valid
// indices into xs or SelectKths panics. When equivalent elements
// (duplicates, two NaN payloads, -0 vs +0) straddle a requested rank, the
// value at the rank is equivalent under == (NaN position included) to the
// oracle's, though not necessarily the same bit pattern — the detectors
// never see that distinction because equivalent floats compare and
// subtract identically downstream.
func SelectKths(xs []float64, ks ...int) {
	for _, k := range ks {
		if k < 0 || k >= len(xs) {
			panic("stats: SelectKths rank out of range")
		}
	}
	if len(ks) == 0 {
		return
	}
	m := nanSweep(xs)
	// Sort and dedupe the ranks (at most a handful: insertion sort).
	var buf [8]int
	sorted := append(buf[:0], ks...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	uniq := sorted[:0]
	for _, k := range sorted {
		// Ranks below the NaN prefix already hold their oracle value.
		if k >= m && (len(uniq) == 0 || k != uniq[len(uniq)-1]) {
			uniq = append(uniq, k)
		}
	}
	var w selectWork
	w.selectRanks(xs, m, len(xs)-1, uniq)
}

// selectWork counts what one selection cost: elements passed over by
// partition and equal-sweep loops, and segments handed to the sort fallback.
// It is one addition per round, and what the adversarial-input tests bound.
type selectWork struct{ visited, fallbacks int }

// b2i is 0 or 1 without a branch (the compiler emits SETcc for this shape).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selectRanks places, for every rank in the ascending duplicate-free ks
// (all within [lo, hi]), the element an ascending sort of xs[lo:hi+1] would
// put there, and partitions the segment around each. Callers guarantee the
// segment is NaN-free (nanSweep ran), so plain < is the oracle's order here.
// It is quickselect over all ranks at once: one partition serves every rank
// still in the segment — the Wilson ranks sit within ~√n of the median, so
// they share all but the last few rounds — and only a round that separates
// ranks recurses (left part; the loop keeps the right).
//
// The partition is Lomuto's with the comparison folded into the index
// arithmetic: every element is swapped to the boundary and the boundary
// advances by b2i(x < p), so the loop body has no data-dependent branch. At
// link-bin sizes (hundreds of samples) a branching partition mispredicts
// every other comparison on live data, which cost more than the comparisons
// themselves. A round that leaves less than an eighth of the segment below
// the pivot — what duplicates of the pivot do, since they all stay above —
// sweeps the pivot's equals next to it the same way, so all-equal and
// few-valued inputs finish in a linear number of visits. Selection is
// deterministic, and a round budget guards against inputs that defeat the
// pivot choice: past it the segment is handed to sort.Float64s, the oracle
// itself, so the equivalence contract holds trivially on every path.
func (w *selectWork) selectRanks(xs []float64, lo, hi int, ks []int) {
	rounds := 0
	maxRounds := 2*bits.Len(uint(hi-lo+1)) + 8
	for len(ks) > 0 {
		if hi-lo < 8 {
			insertionSortFloat(xs, lo, hi)
			return
		}
		if rounds++; rounds > maxRounds {
			w.fallbacks++
			sort.Float64s(xs[lo : hi+1])
			return
		}
		w.visited += hi - lo + 1
		seg := xs[lo : hi+1]
		p := pivot(seg)
		// seg[0] == p; afterwards seg[1:j] < p ≤ seg[j:].
		j := 1
		for i := 1; i < len(seg); i++ {
			x := seg[i]
			seg[i] = seg[j]
			seg[j] = x
			j += b2i(x < p)
		}
		j--
		seg[0], seg[j] = seg[j], p
		// seg[:j] < p, seg[j:e] == p, seg[e:] ≥ p (> p after a sweep).
		e := j + 1
		if j < len(seg)/8 {
			w.visited += len(seg) - e
			for i := e; i < len(seg); i++ {
				x := seg[i]
				seg[i] = seg[e]
				seg[e] = x
				e += b2i(x == p)
			}
		}
		// Ranks inside [j, e) are placed; the rest split around it.
		nl, nr := 0, len(ks)
		for nl < len(ks) && ks[nl] < lo+j {
			nl++
		}
		for nr > nl && ks[nr-1] >= lo+e {
			nr--
		}
		left, right := ks[:nl], ks[nr:]
		switch {
		case len(right) == 0:
			hi, ks = lo+j-1, left
		case len(left) == 0:
			lo, ks = lo+e, right
		default:
			w.selectRanks(xs, lo, lo+j-1, left)
			lo, ks = lo+e, right
		}
	}
}

// pivot moves the median of three elements of seg to seg[0] and returns it.
// The three sit at positions hashed from len(seg) — a fixed function of the
// input, so selection stays deterministic — because the classic first,
// middle and last are exactly what sorted, organ-pipe and sawtooth inputs
// defeat once Lomuto's swaps have rotated them.
func pivot(seg []float64) float64 {
	n := uint64(len(seg))
	h := hash.Mix64(n, n)
	// Each 21-bit field of h is a fraction of the segment length.
	at := func(f uint64) int { return int((f & (1<<21 - 1)) * n >> 21) }
	a, b, c := at(h>>43), at(h>>22), at(h)
	if seg[b] < seg[a] {
		a, b = b, a
	}
	if seg[c] < seg[b] {
		b = c
		if seg[b] < seg[a] {
			b = a
		}
	}
	seg[0], seg[b] = seg[b], seg[0]
	return seg[0]
}

// insertionSortFloat sorts a NaN-free xs[lo:hi+1] ascending.
func insertionSortFloat(xs []float64, lo, hi int) {
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// MedianWilsonSelect computes exactly what MedianWilsonSorted computes on
// sort.Float64s(xs) — the same order statistics at the same Wilson ranks,
// hence the same MedianCI — without sorting: the three (four, for even n)
// required ranks are selected in O(n). xs is partially reordered in place;
// callers owning a scratch buffer (the delay detector's per-bin sample
// buffer) lose nothing, others should copy first. For an empty slice it
// returns a zero MedianCI with N == 0.
func MedianWilsonSelect(xs []float64, z float64) MedianCI {
	n := len(xs)
	if n == 0 {
		return MedianCI{}
	}
	lo, hi := wilsonRanks(n, z)
	if n%2 == 1 {
		SelectKths(xs, lo, n/2, hi)
	} else {
		SelectKths(xs, lo, n/2-1, n/2, hi)
	}
	// The median ranks are in their sorted positions now, so the sorted
	// midpoint arithmetic applies verbatim.
	return MedianCI{
		Median: medianSorted(xs),
		Lower:  xs[lo],
		Upper:  xs[hi],
		N:      n,
	}
}
