package ipmap

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"testing/quick"
)

// mustAdd adds a prefix to tbl, failing the test on Add's error.
func mustAdd(tb testing.TB, tbl *Table, prefix string, asn ASN) {
	tb.Helper()
	if err := tbl.Add(netip.MustParsePrefix(prefix), asn); err != nil {
		tb.Fatal(err)
	}
}

func TestLookupLongestPrefix(t *testing.T) {
	var tbl Table
	mustAdd(t, &tbl, "10.0.0.0/8", 100)
	mustAdd(t, &tbl, "10.1.0.0/16", 200)
	mustAdd(t, &tbl, "10.1.2.0/24", 300)
	mustAdd(t, &tbl, "0.0.0.0/0", 1)

	tests := []struct {
		addr string
		want ASN
	}{
		{"10.1.2.3", 300},
		{"10.1.3.4", 200},
		{"10.9.9.9", 100},
		{"192.168.1.1", 1},
	}
	for _, tt := range tests {
		got, ok := tbl.Lookup(netip.MustParseAddr(tt.addr))
		if !ok || got != tt.want {
			t.Errorf("Lookup(%s) = %v/%v, want %v", tt.addr, got, ok, tt.want)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	var tbl Table
	mustAdd(t, &tbl, "10.0.0.0/8", 100)
	if _, ok := tbl.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("lookup outside any prefix should miss")
	}
	if _, ok := tbl.Lookup(netip.Addr{}); ok {
		t.Error("invalid address should miss")
	}
	var empty Table
	if _, ok := empty.Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Error("empty table should miss")
	}
}

func TestIPv6(t *testing.T) {
	var tbl Table
	mustAdd(t, &tbl, "2001:db8::/32", 500)
	mustAdd(t, &tbl, "2001:db8:1::/48", 600)
	got, ok := tbl.Lookup(netip.MustParseAddr("2001:db8:1::5"))
	if !ok || got != 600 {
		t.Errorf("IPv6 LPM = %v/%v, want 600", got, ok)
	}
	got, ok = tbl.Lookup(netip.MustParseAddr("2001:db8:2::5"))
	if !ok || got != 500 {
		t.Errorf("IPv6 fallback = %v/%v, want 500", got, ok)
	}
	if _, ok := tbl.Lookup(netip.MustParseAddr("2002::1")); ok {
		t.Error("IPv6 miss expected")
	}
}

func TestFamiliesAreSeparate(t *testing.T) {
	var tbl Table
	mustAdd(t, &tbl, "::/0", 6)
	if _, ok := tbl.Lookup(netip.MustParseAddr("1.2.3.4")); ok {
		t.Error("IPv6 default route must not cover IPv4 addresses")
	}
}

func TestOverwriteAndLen(t *testing.T) {
	var tbl Table
	mustAdd(t, &tbl, "10.0.0.0/8", 100)
	mustAdd(t, &tbl, "10.0.0.0/8", 111)
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1 after overwrite", tbl.Len())
	}
	got, _ := tbl.Lookup(netip.MustParseAddr("10.0.0.1"))
	if got != 111 {
		t.Errorf("overwrite: got %v, want 111", got)
	}
}

func TestAddInvalid(t *testing.T) {
	var tbl Table
	if err := tbl.Add(netip.Prefix{}, 1); err == nil {
		t.Error("Add of invalid prefix should error")
	}
}

func TestHostRoutes(t *testing.T) {
	var tbl Table
	mustAdd(t, &tbl, "192.0.2.1/32", 42)
	got, ok := tbl.Lookup(netip.MustParseAddr("192.0.2.1"))
	if !ok || got != 42 {
		t.Errorf("host route = %v/%v, want 42", got, ok)
	}
	if _, ok := tbl.Lookup(netip.MustParseAddr("192.0.2.2")); ok {
		t.Error("neighboring address must not match a /32")
	}
}

func TestEntries(t *testing.T) {
	var tbl Table
	mustAdd(t, &tbl, "10.1.0.0/16", 200)
	mustAdd(t, &tbl, "10.0.0.0/8", 100)
	mustAdd(t, &tbl, "2001:db8::/32", 500)
	es := tbl.Entries()
	if len(es) != 3 {
		t.Fatalf("Entries len = %d, want 3", len(es))
	}
	seen := map[string]ASN{}
	for _, e := range es {
		seen[e.Prefix.String()] = e.ASN
	}
	if seen["10.0.0.0/8"] != 100 || seen["10.1.0.0/16"] != 200 || seen["2001:db8::/32"] != 500 {
		t.Errorf("Entries = %+v", es)
	}
}

// Property: for random /24 insertions, every address inside an inserted /24
// resolves to that /24's ASN (no broader prefix inserted), and the
// round-trip through Entries preserves the table.
func TestRandomPrefixesProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	f := func() bool {
		var tbl Table
		type pfx struct {
			p netip.Prefix
			a ASN
		}
		var inserted []pfx
		for i := 0; i < 50; i++ {
			addr := netip.AddrFrom4([4]byte{byte(rng.IntN(223) + 1), byte(rng.IntN(256)), byte(rng.IntN(256)), 0})
			p := netip.PrefixFrom(addr, 24)
			a := ASN(rng.IntN(65000) + 1)
			if err := tbl.Add(p, a); err != nil {
				return false
			}
			inserted = append(inserted, pfx{p.Masked(), a})
		}
		// later duplicates overwrite earlier: build expectation map
		want := map[netip.Prefix]ASN{}
		for _, in := range inserted {
			want[in.p] = in.a
		}
		for p, a := range want {
			host := netip.AddrFrom4([4]byte{p.Addr().As4()[0], p.Addr().As4()[1], p.Addr().As4()[2], byte(rng.IntN(256))})
			got, ok := tbl.Lookup(host)
			if !ok || got != a {
				return false
			}
		}
		return tbl.Len() == len(want)
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
