// Command pinpoint analyzes a traceroute dataset offline: it runs the full
// detection pipeline (differential-RTT delay changes, forwarding anomalies,
// per-AS aggregation) over an NDJSON dump and prints alarms, per-AS
// magnitudes, and major events. With -case it instead generates one of the
// built-in scenarios and analyzes it in place through the fused pipeline
// (parallel generator workers feeding the sharded engine directly); -case
// combined with -input replays a dump of that scenario (e.g. from
// atlasgen) through the parallel ingest pipeline, with the case supplying
// the probe and prefix metadata — no sidecar file needed.
//
// Dumps may be gzip-compressed (auto-detected), read from stdin (-, the
// default without -case), and -input accepts a comma-separated list
// replayed as one stream.
// -cpuprofile/-memprofile write pprof profiles of the whole run for field
// profiling of ingest.
//
// With -store DIR (requires -case) every closed bin is committed to an
// append-only segment store (internal/segstore) as the run progresses; a
// rerun with the same directory resumes past the committed bins, replaying
// the earlier deterministic input as warmup only.
//
// Usage:
//
//	pinpoint -input ddos.ndjson -meta ddos.ndjson.meta.json
//	atlasgen -case leak | pinpoint -meta leak.meta.json
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
	"math"
	"net/netip"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/core"
	"pinpoint/internal/experiments"
	"pinpoint/internal/ingest"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/report"
	"pinpoint/internal/segstore"
	"pinpoint/internal/serve"
	"pinpoint/internal/timeseries"
)

// splitPaths parses the -input list, rejecting an effectively empty one.
func splitPaths(s string) ([]string, error) {
	out := ingest.SplitPaths(s)
	if len(out) == 0 {
		return nil, errors.New("-input lists no dump paths")
	}
	return out, nil
}

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

// checkEventFlags validates -threshold and -window before any analysis
// runs: the aggregator would read a zero threshold as its default and a
// negative one as "every bin is an event", no magnitude reaches a NaN or
// infinite one, and a window shorter than one bin holds no magnitude
// history.
func checkEventFlags(threshold float64, window, bin time.Duration) error {
	if !(threshold > 0) || math.IsInf(threshold, 1) {
		return fmt.Errorf("-threshold %v: must be positive and finite", threshold)
	}
	if window < bin {
		return fmt.Errorf("-window %v: must be at least one bin (%v)", window, bin)
	}
	return nil
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
	input := flag.String("input", "", "comma-separated dump paths to replay (NDJSON, .gz ok, - for stdin; default stdin unless -case); with -case the case supplies the metadata")
	metaPath := flag.String("meta", "", "metadata JSON path (required for dump input unless -case)")
	caseName := flag.String("case", "", "generate and analyze a scenario ("+strings.Join(experiments.CaseNames, ", ")+") — or, with -input, supply its metadata for a dump replay")
	scaleName := flag.String("scale", "quick", "workload scale for -case: quick or full")
	genWorkers := flag.Int("gen-workers", 0, "generator workers for -case (0 = all CPUs, 1 = inline)")
	decodeWorkers := flag.Int("decode-workers", 0, "NDJSON decode workers for dump input (0 = all CPUs, 1 = inline)")
	skipBad := flag.Bool("skip-bad", false, "tolerate undecodable dump lines (skipped count is reported) instead of aborting")
	threshold := flag.Float64("threshold", 10, "event magnitude threshold")
	window := flag.Duration("window", 7*24*time.Hour, "magnitude sliding window")
	workers := flag.Int("workers", 0, "analysis worker shards (0 = all CPUs, 1 = one inline shard)")
	verbose := flag.Bool("v", false, "print every alarm")
	topAS := flag.Int("top", 10, "number of ASes to summarize")
	dotPath := flag.String("dot", "", "write the alarm graph (all components) as Graphviz DOT to this path")
	dotAround := flag.String("dot-around", "", "restrict the DOT graph to the component containing this IP")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken at exit, after a GC) to this path")
	binCloseStats := flag.Bool("binclose-stats", false, "print bin-close kernel throughput (bins/links/flows closed, samples/s) after the run")
	storeDir := flag.String("store", "", "segment store directory for crash-safe per-bin persistence (requires -case); reopening resumes past committed bins, reporting post-resume alarms only")
	flag.Parse()

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

	cfg := core.Config{RetainAlarms: true, Workers: *workers}
	if cfg.Workers == 0 {
		cfg.Workers = core.AutoWorkers
	}
	if err := checkEventFlags(*threshold, *window, cfg.BinSize()); err != nil {
		return err
	}
	cfg.Events.Threshold = *threshold
	cfg.Events.Window = *window

	var (
		a           *core.Analyzer
		first, last time.Time
		elapsed     time.Duration
	)
	var c *experiments.Case
	if *caseName != "" {
		scale, err := experiments.ParseScale(*scaleName)
		if err != nil {
			return err
		}
		c, err = experiments.NewCase(*caseName, scale)
		if err != nil {
			return err
		}
	}

	if *storeDir != "" && c == nil {
		// Resuming replays the deterministic input from the start; only a
		// case supplies the run window the store's resume cursor needs.
		return errors.New("-store requires -case")
	}
	around, err := parseDotAround(*dotPath, *dotAround)
	if err != nil {
		return err
	}

	// attach wires per-close processing: with -store, a headless publisher
	// owns the close hook and commits each bin to the segment store. The
	// publisher serves no HTTP here — it is the commit and resume machinery
	// shared with cmd/ihr.
	var pub *serve.Publisher
	attach := func(a *core.Analyzer) error {
		if *storeDir == "" {
			return nil
		}
		st, err := segstore.Open(*storeDir)
		if err != nil {
			return fmt.Errorf("-store: %w", err)
		}
		if rec := st.Recovery(); rec.Truncated > 0 {
			fmt.Printf("store %s: discarded torn tail (%d bytes)\n", *storeDir, rec.Truncated)
		}
		pub, err = serve.NewPublisherWithStore(a, serve.Meta{
			Case:        c.Name,
			Description: c.Description,
			Start:       c.Start,
			End:         c.End,
		}, st)
		if err != nil {
			return fmt.Errorf("-store: %w", err)
		}
		if at, ok := pub.Resumed(); ok {
			fmt.Printf("store %s: %d committed bins, resuming at %s (replaying earlier input as warmup)\n",
				*storeDir, st.Len(), at.Format(time.RFC3339))
		}
		return nil
	}

	// replay analyzes one or more NDJSON dumps through the parallel ingest
	// pipeline (gzip auto-detected, delivery in input order).
	replay := func(paths []string, probeASN func(int) (ipmap.ASN, bool), table *ipmap.Table) error {
		a = core.New(cfg, probeASN, table)
		if err := attach(a); err != nil {
			return err
		}
		opts := ingest.Options{Workers: *decodeWorkers}
		if *skipBad {
			opts.OnError = func(*ingest.LineError) error { return nil }
		}
		t0 := time.Now()
		st, err := a.RunFiles(context.Background(), paths, opts, func(_ int, batchFirst, batchLast time.Time) {
			if first.IsZero() {
				first = batchFirst
			}
			last = batchLast
		})
		if err != nil {
			return err
		}
		elapsed = time.Since(t0)
		fmt.Printf("ingested %d lines (%d results, %d skipped) from %d dump(s)\n",
			st.Lines, st.Results, st.Skipped, len(paths))
		return nil
	}

	switch {
	case c != nil && *input == "":
		// Fused mode: generate and analyze in place.
		c.Platform.SetWorkers(*genWorkers)
		a = core.New(cfg, c.Platform.ProbeASN, c.Net.Prefixes())
		if err := attach(a); err != nil {
			return err
		}
		t0 := time.Now()
		if err := a.RunPlatform(context.Background(), c.Platform, c.Start, c.End); err != nil {
			return err
		}
		elapsed = time.Since(t0)
		first, last = c.Start, c.End
		fmt.Printf("case %s (%s), fused pipeline: %d generator workers\n",
			c.Name, c.Description, c.Platform.Workers())
	case c != nil:
		// Mixed mode: replay a dump of the scenario; the case supplies the
		// probe and prefix metadata instead of a -meta sidecar.
		fmt.Printf("case %s (%s), dump replay\n", c.Name, c.Description)
		paths, err := splitPaths(*input)
		if err != nil {
			return err
		}
		if err := replay(paths, c.Platform.ProbeASN, c.Net.Prefixes()); err != nil {
			return err
		}
	default:
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
		table, err := meta.Table()
		if err != nil {
			return err
		}
		paths := []string{"-"}
		if *input != "" {
			if paths, err = splitPaths(*input); err != nil {
				return err
			}
		}
		if err := replay(paths, meta.ProbeASN(), table); err != nil {
			return err
		}
	}
	defer a.Close()

	if pub != nil {
		// Finish seals the run: any commit failure recorded during the run
		// surfaces here, so a store with missing bins cannot pass as a
		// completed analysis.
		pub.Finish(nil)
		if err := pub.StoreErr(); err != nil {
			return fmt.Errorf("segment store: %w", err)
		}
		st := pub.Store()
		fmt.Printf("segment store: %d committed bins in %s\n", st.Len(), *storeDir)
		defer st.Close()
	}

	fmt.Printf("processed %d results, %s .. %s (%.0f results/s end-to-end)\n",
		a.Results(), first.Format("2006-01-02 15:04"), last.Format("2006-01-02 15:04"),
		float64(a.Results())/elapsed.Seconds())
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
	end := last.Add(binSize)
	evs := agg.Events(timeseries.Bin(first, binSize).Add(*window/7), end)
	fmt.Printf("\nmajor events (|magnitude| ≥ %.0f):\n", *threshold)
	if len(evs) == 0 {
		fmt.Println("  none")
	}
	for _, e := range evs {
		fmt.Printf("  %s\n", e)
	}

	if *dotPath != "" {
		g := a.Graph(first, end)
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
