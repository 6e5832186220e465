// Command experiments regenerates the paper's tables and figures (the index
// is experiments.Registry) and prints each report with its
// paper-vs-measured claim checks.
//
// Usage:
//
//	experiments                 # all experiments, quick scale
//	experiments -scale full     # benchmark scale
//	experiments -run F6,F7,F8   # one figure family
//	experiments -dot out/       # also write alarm-graph DOT files
//	experiments -robust BENCH_robust.json   # robustness grid instead
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"pinpoint/internal/experiments"
	"pinpoint/internal/ingest"
)

// parseRobustCases parses the -robust-cases list. Empty segments are
// dropped; a list naming no case, or an unknown one, is a flag error caught
// before any cell runs.
func parseRobustCases(s string) ([]string, error) {
	cases := ingest.SplitPaths(s)
	if len(cases) == 0 {
		return nil, errors.New("-robust-cases lists no cases")
	}
	for _, c := range cases {
		if !slices.Contains(experiments.CaseNames, c) {
			return nil, fmt.Errorf("-robust-cases: unknown case %q", c)
		}
	}
	return cases, nil
}

// parseRunList parses the -run list: "all" (the default) or an empty list
// selects every experiment. Otherwise empty segments are dropped, and a
// list naming no experiment, or an unknown one, is a flag error caught before
// any experiment runs. The selection keeps Registry order.
func parseRunList(s string) ([]experiments.Experiment, error) {
	if s == "all" || s == "" {
		return experiments.Registry, nil
	}
	ids := ingest.SplitPaths(s)
	if len(ids) == 0 {
		return nil, errors.New("-run lists no experiments")
	}
	for _, id := range ids {
		if _, ok := experiments.ByID(id); !ok {
			return nil, fmt.Errorf("-run: unknown experiment %q", id)
		}
	}
	var sel []experiments.Experiment
	for _, e := range experiments.Registry {
		if slices.Contains(ids, e.ID) {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	scaleName := flag.String("scale", "quick", "workload scale: quick or full")
	runList := flag.String("run", "all", "comma-separated experiment ids (e.g. F2,F6) or all")
	dotDir := flag.String("dot", "", "directory for alarm-graph DOT output (F8, F12)")
	robustOut := flag.String("robust", "", "run the robustness grid (cases × artifact mixes, events scored against ground truth) and write the JSON report to this path instead of the paper experiments")
	robustCases := flag.String("robust-cases", "", "comma-separated case subset for -robust (default all: "+strings.Join(experiments.CaseNames, ", ")+")")
	workers := flag.Int("workers", 0, "platform/analyzer workers for -robust (0 = default)")
	flag.Parse()
	if err := experiments.CheckWorkerFlags(flag.CommandLine); err != nil {
		log.Fatal(err)
	}

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		log.Fatal(err)
	}

	if *robustOut != "" {
		cfg := experiments.RobustConfig{Workers: *workers}
		if *robustCases != "" {
			if cfg.Cases, err = parseRobustCases(*robustCases); err != nil {
				log.Fatal(err)
			}
		}
		rep, err := experiments.RunRobustness(scale, cfg)
		if err != nil {
			log.Fatal(err)
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*robustOut, buf, 0o644); err != nil {
			log.Fatal(err)
		}
		s := rep.Summary
		fmt.Printf("robustness grid: %d cells → %s\n", len(rep.Cells), *robustOut)
		fmt.Printf("clean true positives %d, clean windows hit %d\n", s.CleanTruePosBase, s.CleanWindowsHitBase)
		fmt.Printf("artifact-run false positives %d\n", s.ArtFalsePosBase)
		return
	}

	selected, err := parseRunList(*runList)
	if err != nil {
		log.Fatal(err)
	}
	failures := 0
	for _, e := range selected {
		rep, err := e.Run(scale)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Println(rep.Render())
		failures += len(rep.Failed())
	}

	if *dotDir != "" {
		if err := os.MkdirAll(*dotDir, 0o755); err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteCaseGraphs(scale, func(name string) (*os.File, error) {
			return os.Create(filepath.Join(*dotDir, name))
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("DOT graphs written to %s\n", *dotDir)
	}

	if failures > 0 {
		log.Fatalf("%d paper claims failed", failures)
	}
	fmt.Printf("all paper claims hold (%d experiments, %s scale)\n", len(selected), scale)
}
