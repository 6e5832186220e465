package main

import (
	"slices"
	"testing"
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
