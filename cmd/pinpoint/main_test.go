package main

import (
	"math"
	"net/netip"
	"testing"
	"time"
)

func TestCheckEventFlagsRejectsBadValues(t *testing.T) {
	const bin = time.Hour
	for _, tc := range []struct {
		threshold float64
		window    time.Duration
		ok        bool
	}{
		{10, 7 * 24 * time.Hour, true},
		{0.5, bin, true},
		{0, 7 * 24 * time.Hour, false},            // the aggregator would read 0 as its default
		{-5, 7 * 24 * time.Hour, false},           // every bin would be an event
		{math.NaN(), 7 * 24 * time.Hour, false},   // no magnitude is ≥ NaN
		{math.Inf(1), 7 * 24 * time.Hour, false},  // no magnitude is ≥ +Inf
		{math.Inf(-1), 7 * 24 * time.Hour, false}, // every magnitude is
		{10, 0, false},                            // the aggregator would read 0 as a week
		{10, -time.Hour, false},
		{10, bin - time.Second, false},
	} {
		err := checkEventFlags(tc.threshold, tc.window, bin)
		if (err == nil) != tc.ok {
			t.Errorf("checkEventFlags(%v, %v) = %v, want ok=%v", tc.threshold, tc.window, err, tc.ok)
		}
	}
}

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
