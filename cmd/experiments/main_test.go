package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pinpoint/internal/experiments"
)

// Regression for the trailing-comma bug: "-robust-cases ddos," used to run
// the ddos cells and then fail on the empty segment as an unknown case.
// Empty segments are dropped, and a list naming no valid case is rejected
// before any cell runs.
func TestParseRobustCases(t *testing.T) {
	for _, bad := range []string{"", ",", " , ", ",,,", "ddos,nosuch"} {
		if cases, err := parseRobustCases(bad); err == nil {
			t.Errorf("parseRobustCases(%q) = %v, want error", bad, cases)
		}
	}
	for in, want := range map[string][]string{
		"ddos,":         {"ddos"},
		"ddos, ":        {"ddos"},
		" ddos , ,leak": {"ddos", "leak"},
	} {
		cases, err := parseRobustCases(in)
		if err != nil {
			t.Errorf("parseRobustCases(%q) error: %v", in, err)
		} else if !slices.Equal(cases, want) {
			t.Errorf("parseRobustCases(%q) = %v, want %v", in, cases, want)
		}
	}
}

// Regression: "-run F2,F99" used to run F2, skip the unknown F99 and exit 0.
// Every id must be known before any experiment runs; the selection keeps
// Registry order whatever the list order.
func TestParseRunList(t *testing.T) {
	for _, bad := range []string{",", " , ", "F2,F99", "F99", "f2"} {
		if sel, err := parseRunList(bad); err == nil {
			t.Errorf("parseRunList(%q) = %d experiments, want error", bad, len(sel))
		}
	}
	for in, want := range map[string][]string{
		"F2,":        {"F2"},
		" F6 , ,F2 ": {"F2", "F6"},
		"F13,F2,F13": {"F2", "F13"},
	} {
		sel, err := parseRunList(in)
		if err != nil {
			t.Errorf("parseRunList(%q) error: %v", in, err)
			continue
		}
		var ids []string
		for _, e := range sel {
			ids = append(ids, e.ID)
		}
		if !slices.Equal(ids, want) {
			t.Errorf("parseRunList(%q) = %v, want %v", in, ids, want)
		}
	}
	for _, all := range []string{"all", ""} {
		if sel, err := parseRunList(all); err != nil || len(sel) != len(experiments.Registry) {
			t.Errorf("parseRunList(%q) = %d experiments, %v; want all %d", all, len(sel), err, len(experiments.Registry))
		}
	}
}

// TestNegativeWorkersRefused runs the built command. -robust -workers -3
// used to generate on every CPU, analyze on one shard and record
// "workers": -3 in its report. A negative count is now refused before any
// work starts: before -scale is parsed, so the unknown scale every row
// passes is never reached. A count of 0 passes the check, and the run fails
// on the scale instead.
func TestNegativeWorkersRefused(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ args, want string }{
		{"-workers -3", "-workers -3: a worker count cannot be negative"},
		{"-workers -1", "-workers -1: a worker count cannot be negative"},
		{"-workers 0", `unknown scale "nosuch"`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		args := append([]string{"-scale", "nosuch", "-robust", filepath.Join(t.TempDir(), "r.json")}, strings.Fields(tc.args)...)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		cancel()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("experiments %s: exit %v, output %q; want a failure containing %q", strings.Join(args, " "), err, out, tc.want)
		}
	}
}
