package main

import (
	"context"
	"math"
	"net/netip"
	"os/exec"
	"path/filepath"
	"strings"
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
		{10, 90 * time.Minute, false}, // would be rounded up to 2h
		{10, 61 * time.Minute, false},
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

// TestNegativeWorkersRefused runs the built command. A negative worker
// count used to mean different things per flag: -workers -1 ran two shards
// (core.AutoWorkers), -workers -2 one inline shard, and -gen-workers -4
// every CPU. It is now refused before any work starts: before -scale is
// parsed, so the unknown scale every row passes is never reached. A count
// of 0 passes the check, and the run fails on the scale instead.
func TestNegativeWorkersRefused(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "pinpoint")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ args, want string }{
		{"-workers -1", "-workers -1: a worker count cannot be negative"},
		{"-workers -2", "-workers -2: a worker count cannot be negative"},
		{"-gen-workers -4", "-gen-workers -4: a worker count cannot be negative"},
		{"-decode-workers -3", "-decode-workers -3: a worker count cannot be negative"},
		{"-workers 0 -gen-workers 0 -decode-workers 0", `unknown scale "nosuch"`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		args := append([]string{"-case", "quiet", "-scale", "nosuch"}, strings.Fields(tc.args)...)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		cancel()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("pinpoint %s: exit %v, output %q; want a failure containing %q", strings.Join(args, " "), err, out, tc.want)
		}
	}
}
