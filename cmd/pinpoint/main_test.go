package main

import (
	"net/netip"
	"testing"
)

func TestParseDotAroundRejectsBadFlags(t *testing.T) {
	for _, bad := range []struct{ dot, around string }{
		{"g.dot", "not-an-ip"},
		{"", "10.0.0.1"}, // -dot-around without -dot
	} {
		if addr, err := parseDotAround(bad.dot, bad.around); err == nil {
			t.Errorf("parseDotAround(%q, %q) = %v, want error", bad.dot, bad.around, addr)
		}
	}
	for _, ok := range []struct {
		dot, around string
		want        netip.Addr
	}{
		{"g.dot", "10.0.0.1", netip.MustParseAddr("10.0.0.1")},
		{"g.dot", "", netip.Addr{}},
		{"", "", netip.Addr{}},
	} {
		addr, err := parseDotAround(ok.dot, ok.around)
		if err != nil || addr != ok.want {
			t.Errorf("parseDotAround(%q, %q) = %v, %v; want %v", ok.dot, ok.around, addr, err, ok.want)
		}
	}
}
