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
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"pinpoint/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	scaleName := flag.String("scale", "quick", "workload scale: quick or full")
	runList := flag.String("run", "all", "comma-separated experiment ids (e.g. F2,F6) or all")
	dotDir := flag.String("dot", "", "directory for alarm-graph DOT output (F8, F12)")
	robustOut := flag.String("robust", "", "run the robustness grid (cases × artifact mixes, corroboration ablation) and write the JSON report to this path instead of the paper experiments")
	robustCases := flag.String("robust-cases", "", "comma-separated case subset for -robust (default all: "+strings.Join(experiments.CaseNames, ", ")+")")
	workers := flag.Int("workers", 0, "platform/analyzer workers for -robust (0 = default)")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		log.Fatal(err)
	}

	if *robustOut != "" {
		cfg := experiments.RobustConfig{Workers: *workers}
		if *robustCases != "" {
			for _, c := range strings.Split(*robustCases, ",") {
				cfg.Cases = append(cfg.Cases, strings.TrimSpace(c))
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
		fmt.Printf("clean true positives %d → %d, clean windows hit %d → %d under corroboration\n",
			s.CleanTruePosBase, s.CleanTruePosCorr, s.CleanWindowsHitBase, s.CleanWindowsHitCorr)
		fmt.Printf("artifact-run false positives %d → %d under corroboration\n",
			s.ArtFalsePosBase, s.ArtFalsePosCorr)
		return
	}

	want := map[string]bool{}
	all := *runList == "all" || *runList == ""
	if !all {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	failures := 0
	ran := 0
	for _, e := range experiments.Registry {
		if !all && !want[e.ID] {
			continue
		}
		ran++
		rep, err := e.Run(scale)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Println(rep.Render())
		failures += len(rep.Failed())
	}
	if ran == 0 {
		log.Fatalf("no experiments matched %q", *runList)
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
	fmt.Printf("all paper claims hold (%d experiments, %s scale)\n", ran, scale)
}
