package stats

// An LSD radix sorting kernel for the delay close's permutation sorts.
// When §4.3 thins a link-bin, grouping its runs by probe and its probe
// groups by AS are total orders over values that pack losslessly into a
// uint64 (a biased int32 probe ID or a uint32 ASN high, an index low), so
// an 8-bit-digit LSD counting sort replaces the comparison sorts: O(n)
// passes, no comparator calls, and — because callers pack unique keys —
// output identical to slices.SortFunc on the unpacked order. The close
// orders of links and flows are address orders over both families, which
// ident.Registry sorts by comparison.
//
// The kernel takes caller-owned scratch and returns it (possibly grown) so
// steady-state use across bins is allocation-free.

// radixCutoff is the size below which binary-insertion sort beats setting
// up eight 256-counter histograms.
const radixCutoff = 48

// RadixSortUint64 sorts keys ascending in place. tmp is scratch of at
// least len(keys) (grown and returned for reuse; pass nil the first time).
func RadixSortUint64(keys []uint64, tmp []uint64) []uint64 {
	n := len(keys)
	if n < radixCutoff {
		insertionSortUint64(keys)
		return tmp
	}
	if cap(tmp) < n {
		tmp = make([]uint64, n)
	}
	tmp = tmp[:n]

	// One pass builds all eight per-byte histograms.
	var count [8][256]int32
	for _, k := range keys {
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}

	src, dst := keys, tmp
	for b := 0; b < 8; b++ {
		c := &count[b]
		shift := uint(b * 8)
		// A digit shared by every key sorts to a no-op pass; skip it.
		// (Common: high bytes of small ID spaces.)
		if c[byte(src[0]>>shift)] == int32(n) {
			continue
		}
		var pos [256]int32
		var sum int32
		for d := 0; d < 256; d++ {
			pos[d] = sum
			sum += c[d]
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[pos[d]] = k
			pos[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
	return tmp
}

// insertionSortUint64 sorts small key slices ascending.
func insertionSortUint64(keys []uint64) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for j > 0 && keys[j-1] > k {
			keys[j] = keys[j-1]
			j--
		}
		keys[j] = k
	}
}
