package ipmap

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"testing"
)

func BenchmarkLookup(b *testing.B) {
	var tbl Table
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 10000; i++ {
		p := fmt.Sprintf("10.%d.%d.0/24", rng.IntN(256), rng.IntN(256))
		mustAdd(b, &tbl, p, ASN(i+1))
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, byte(rng.IntN(256)), byte(rng.IntN(256)), byte(rng.IntN(256))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(addrs[i%len(addrs)])
	}
}

func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	prefixes := make([]netip.Prefix, 1024)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(
			netip.AddrFrom4([4]byte{10, byte(rng.IntN(256)), byte(rng.IntN(256)), 0}), 24)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var tbl Table
	for i := 0; i < b.N; i++ {
		if err := tbl.Add(prefixes[i%len(prefixes)], ASN(i)); err != nil {
			b.Fatal(err)
		}
	}
}
