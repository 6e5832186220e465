package stats

import (
	"math/rand"
	"slices"
	"testing"
)

// radixSizes straddles the insertion-sort cutoff and includes sizes large
// enough to take all eight counting passes.
var radixSizes = []int{0, 1, 2, 3, radixCutoff - 1, radixCutoff, radixCutoff + 1, 100, 1000, 4096}

func radixPatterns(rng *rand.Rand, n int) map[string][]uint64 {
	pats := map[string][]uint64{
		"random":   nil,
		"sorted":   nil,
		"reverse":  nil,
		"allequal": nil,
		"lowbyte":  nil, // only the low byte varies: 7 skipped passes
		"highbyte": nil, // only the high byte varies: 7 skipped passes
		"dup":      nil,
	}
	for name := range pats {
		keys := make([]uint64, n)
		for i := range keys {
			switch name {
			case "random":
				keys[i] = rng.Uint64()
			case "sorted":
				keys[i] = uint64(i) * 3
			case "reverse":
				keys[i] = uint64(n-i) << 17
			case "allequal":
				keys[i] = 0xdeadbeefcafe
			case "lowbyte":
				keys[i] = 0xab00 | uint64(rng.Intn(256))
			case "highbyte":
				keys[i] = uint64(rng.Intn(256))<<56 | 0x42
			case "dup":
				keys[i] = uint64(rng.Intn(5))
			}
		}
		pats[name] = keys
	}
	return pats
}

func TestRadixSortUint64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tmp []uint64 // reused across calls: exercises the scratch contract
	for _, n := range radixSizes {
		for name, keys := range radixPatterns(rng, n) {
			want := append([]uint64(nil), keys...)
			slices.Sort(want)
			tmp = RadixSortUint64(keys, tmp)
			if !slices.Equal(keys, want) {
				t.Fatalf("n=%d %s: radix %v != sorted %v", n, name, keys, want)
			}
		}
	}
}
