package main

import (
	"slices"
	"testing"

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
