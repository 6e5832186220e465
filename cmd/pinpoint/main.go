// Command pinpoint analyzes a traceroute dataset offline: it runs the full
// detection pipeline (differential-RTT delay changes, forwarding anomalies,
// per-AS aggregation) and prints alarms, per-AS magnitudes, and major
// events. Its input is one of three, chosen by the input flags shared with
// cmd/ihr and cmd/atlasgen (internal/experiments.DefineInputs): -case
// generates a built-in scenario and analyzes it in place through the fused
// pipeline; -case with -input replays a dump of that scenario (e.g. from
// atlasgen) with the case supplying the probe and prefix metadata; -input
// alone replays a dump whose metadata is the -meta sidecar. Dumps may be
// gzip-compressed (auto-detected), read from stdin (-, the default without
// -case), and -input accepts a comma-separated list replayed as one stream.
// A flag the chosen input does not read is refused.
//
// -cpuprofile/-memprofile write pprof profiles of the whole run for field
// profiling of ingest.
//
// With -store DIR (requires -case) every closed bin is committed to an
// append-only segment store (internal/segstore) as the run progresses; a
// rerun with the same directory resumes past the committed bins, replaying
// the earlier deterministic input as warmup only and reporting post-resume
// alarms only.
//
// Usage:
//
//	pinpoint -input ddos.ndjson -meta ddos.ndjson.meta.json
//	atlasgen -case leak | pinpoint -case leak -input -
//	atlasgen -case leak -o leak.ndjson && pinpoint -input leak.ndjson -meta leak.ndjson.meta.json
//	pinpoint -case ddos -scale quick -gen-workers 4 -workers 4
//	pinpoint -case ddos -input ddos.ndjson.gz -decode-workers 4
//	pinpoint -case ddos -store /tmp/ddos.store
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/core"
	"pinpoint/internal/experiments"
	"pinpoint/internal/ingest"
	"pinpoint/internal/report"
	"pinpoint/internal/serve"
	"pinpoint/internal/timeseries"
)

// parseDotAround validates -dot-around against -dot before any analysis
// runs. The zero Addr (no -dot-around) draws every component.
func parseDotAround(dotPath, around string) (netip.Addr, error) {
	if around == "" {
		return netip.Addr{}, nil
	}
	if dotPath == "" {
		return netip.Addr{}, errors.New("-dot-around requires -dot")
	}
	addr, err := netip.ParseAddr(around)
	if err != nil {
		return netip.Addr{}, fmt.Errorf("-dot-around: %w", err)
	}
	return addr, nil
}

// main only parses the exit status; the whole run lives in run() so its
// defers — crucially StopCPUProfile and the -memprofile writer — fire on
// every error path instead of being skipped by log.Fatal's os.Exit.
func main() {
	log.SetFlags(0)
	log.SetPrefix("pinpoint: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	src := experiments.DefineInputs(flag.CommandLine, "", experiments.Sidecar)
	metaPath := flag.String("meta", "", "metadata JSON path (required for dump input unless -case)")
	skipBad := flag.Bool("skip-bad", false, "tolerate undecodable dump lines (skipped count is reported) instead of aborting")
	threshold := flag.Float64("threshold", 10, "event magnitude threshold")
	window := flag.Duration("window", 7*24*time.Hour, "magnitude sliding window")
	verbose := flag.Bool("v", false, "print every alarm")
	topAS := flag.Int("top", 10, "number of ASes to summarize")
	dotPath := flag.String("dot", "", "write the alarm graph (all components) as Graphviz DOT to this path")
	dotAround := flag.String("dot-around", "", "restrict the DOT graph to the component containing this IP")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken at exit, after a GC) to this path")
	binCloseStats := flag.Bool("binclose-stats", false, "print bin-close kernel throughput (bins/links/flows closed, samples/s) after the run")
	flag.Parse()

	cfg := core.Config{RetainAlarms: true}
	cfg.Events.Threshold = *threshold
	cfg.Events.Window = *window
	cfg.Events.BinSize = cfg.BinSize()
	if err := cfg.Events.Check(); err != nil {
		return err
	}
	around, err := parseDotAround(*dotPath, *dotAround)
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		// Registered after the CPU-profile defer so it runs first; errors
		// only log so the CPU profile still flushes.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("-memprofile: %v", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("-memprofile: %v", err)
			}
			f.Close()
		}()
	}

	if err := src.Build(map[experiments.Mode][]string{
		experiments.Generate: {"meta", "skip-bad"},
		experiments.Replay:   {"meta"},
	}); err != nil {
		return err
	}

	c := src.Case
	switch src.Mode {
	case experiments.Replay:
		fmt.Printf("case %s (%s), dump replay\n", c.Name, c.Description)
	case experiments.Sidecar:
		if *metaPath == "" {
			return errors.New("-meta is required (probe and prefix mappings)")
		}
		mf, err := os.Open(*metaPath)
		if err != nil {
			return err
		}
		meta, err := atlas.ReadMetadata(mf)
		mf.Close()
		if err != nil {
			return err
		}
		if src.Table, err = meta.Table(); err != nil {
			return err
		}
		src.ProbeASN = meta.ProbeASN()
	}
	cfg.Workers = src.Workers
	a := core.New(cfg, src.ProbeASN, src.Table)
	defer a.Close()

	// With -store, a headless publisher owns the close hook and commits each
	// bin to the segment store. It serves no HTTP here: it is the commit and
	// resume machinery shared with cmd/ihr.
	var pub *serve.Publisher
	if src.Store != "" {
		meta := serve.Meta{Case: c.Name, Description: c.Description, Start: c.Start, End: c.End}
		if pub, err = serve.OpenPublisher(a, meta, src.Store, func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}); err != nil {
			return fmt.Errorf("-store: %w", err)
		}
	}

	var onError func(*ingest.LineError) error
	if *skipBad {
		onError = func(*ingest.LineError) error { return nil }
	}
	r, err := src.Run(context.Background(), a, onError)
	if err != nil {
		return err
	}
	if src.Mode == experiments.Generate {
		fmt.Printf("case %s (%s), fused pipeline: %d generator workers\n", c.Name, c.Description, r.GenWorkers)
	} else {
		fmt.Printf("ingested %d lines (%d results, %d skipped) from %d dump(s)\n",
			r.Stats.Lines, r.Stats.Results, r.Stats.Skipped, len(src.Paths))
	}

	if pub != nil {
		// Finish seals the run: any commit failure recorded during the run
		// surfaces here, so a store with missing bins cannot pass as a
		// completed analysis.
		pub.Finish(nil)
		if err := pub.StoreErr(); err != nil {
			return fmt.Errorf("segment store: %w", err)
		}
		st := pub.Store()
		fmt.Printf("segment store: %d committed bins in %s\n", st.Len(), src.Store)
		defer st.Close()
	}

	fmt.Printf("processed %d results, %s .. %s (%.0f results/s end-to-end)\n",
		a.Results(), r.First.Format("2006-01-02 15:04"), r.Last.Format("2006-01-02 15:04"),
		float64(a.Results())/r.Elapsed.Seconds())
	fmt.Printf("links with samples: %d; router IPs modeled: %d (workers: %d)\n",
		a.LinksSeen(), a.RoutersSeen(), a.Workers())
	reg := a.Registry()
	fmt.Printf("interned identities: %d addrs, %d links, %d flows, %d routers\n",
		reg.Addrs(), reg.Links(), reg.Flows(), reg.Routers())
	if n := a.Aggregator().DroppedStale(); n > 0 {
		fmt.Printf("%d late alarms/bins rejected (closed bins are immutable)\n", n)
	}
	fmt.Printf("delay alarms: %d; forwarding alarms: %d\n\n",
		len(a.DelayAlarms()), len(a.ForwardingAlarms()))

	if *binCloseStats {
		dc, fc := a.BinCloseStats()
		rate := 0.0
		if dc.Dur > 0 {
			rate = float64(dc.Samples) / dc.Dur.Seconds()
		}
		fmt.Printf("bin-close: %d bins; %d link-bins, %d with probes dropped, %d more rejected (%d ∆ samples, %.3gM samples/s through the kernels, %v); %d flow-bins (%v)\n\n",
			dc.Bins, dc.Links, dc.Dropped, dc.Rejected, dc.Samples, rate/1e6, dc.Dur.Round(time.Millisecond), fc.Flows, fc.Dur.Round(time.Millisecond))
	}

	if *verbose {
		for _, al := range a.DelayAlarms() {
			fmt.Printf("DELAY %s %s shift=%.1fms dev=%.1f (probes=%d ases=%d)\n",
				al.Bin.Format("01-02 15:04"), al.Link, al.DiffMS, al.Deviation, al.Probes, al.ASes)
		}
		for _, al := range a.ForwardingAlarms() {
			top, _ := al.MaxResponsibility()
			fmt.Printf("FWD   %s router=%s dst=%s ρ=%.2f top=%s r=%.2f\n",
				al.Bin.Format("01-02 15:04"), al.Router, al.Dst, al.Rho, top.Hop, top.Responsibility)
		}
		fmt.Println()
	}

	// Per-AS summary sorted by total delay severity.
	agg := a.Aggregator()
	type asScore struct {
		asn   string
		score float64
	}
	var scores []asScore
	for _, asn := range agg.ASes() {
		total := 0.0
		if s := agg.DelaySeries(asn); s != nil {
			for _, p := range s.Points() {
				total += p.V
			}
		}
		scores = append(scores, asScore{asn: asn.String(), score: total})
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].score > scores[j].score })
	rows := [][]string{{"AS", "total delay severity"}}
	for i, s := range scores {
		if i >= *topAS {
			break
		}
		rows = append(rows, []string{s.asn, fmt.Sprintf("%.1f", s.score)})
	}
	fmt.Print(report.Table(rows))

	binSize := agg.Config().BinSize
	end := r.Last.Add(binSize)
	evs := agg.Events(timeseries.Bin(r.First, binSize).Add(*window/7), end)
	fmt.Printf("\nmajor events (|magnitude| ≥ %.0f):\n", *threshold)
	if len(evs) == 0 {
		fmt.Println("  none")
	}
	for _, e := range evs {
		fmt.Printf("  %s\n", e)
	}

	if *dotPath != "" {
		g := a.Graph(r.First, end)
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		if err := g.WriteDOT(f, around, nil); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nalarm graph written to %s\n", *dotPath)
	}
	return nil
}
