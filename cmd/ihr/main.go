// Command ihr is the Internet Health Report of §8: it runs a measurement
// scenario through the streaming analysis pipeline and serves the computed
// results (alarms, per-AS magnitudes, events) over an HTTP JSON API — the
// reproduction of the paper's public API and website.
//
// Usage:
//
//	ihr -case ddos -scale quick -addr :8080
//	ihr -case ddos -input ddos.ndjson.gz -decode-workers 4
//	ihr -case ddos -store /var/lib/ihr/ddos
//	ihr -follow http://writer:8080 -addr :8081
//
// With -input the server replays an NDJSON dump (e.g. from atlasgen)
// through the parallel ingest pipeline instead of generating live; the
// -case still supplies the probe/prefix metadata and the display window.
//
// With -store every closed bin is committed to an append-only segment store
// (internal/segstore) before it is announced; restarting with the same
// directory rebuilds the snapshot from the committed segments, replays the
// deterministic input as warmup, and resumes committing at the first
// uncovered bin — serving byte-identical payloads to an uninterrupted run.
// The store is the writer's alone: it is written at every bin close and
// read only at that restart.
//
// With -follow the process is a replica instead of a writer: it runs no
// analysis, tails the writer's versioned replication feed (/api/stream),
// rebuilds byte-identical snapshots and serves the same read API. Replicas
// resync automatically across disconnects and writer restarts; N replicas
// behind any load balancer form a horizontally scalable read tier. The feed
// is a replica's only source of history, so -follow rejects -store as it
// rejects -input.
//
// Endpoints (see internal/serve for filters, pagination, ETag and SSE):
//
//	GET /api/status            analysis progress and run outcome
//	GET /api/alarms/delay      delay-change alarms
//	GET /api/alarms/forwarding forwarding anomalies
//	GET /api/events            major per-AS events
//	GET /api/magnitude?asn=N   hourly magnitude series for one AS
//	GET /api/bins[?bin=T]      closed-bin index / one bin's payload (every role)
//	GET /api/stream            SSE delta stream (one event per closed bin)
//	GET /                      human-readable summary
//
// Serving is decoupled from analysis by the snapshot read model of
// internal/serve: handlers never take a lock the ingest loop holds, so
// heavy read traffic cannot stall the pipeline and a heavy batch cannot
// stall readers. SIGINT/SIGTERM shut the server down gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/experiments"
	"pinpoint/internal/ingest"
	"pinpoint/internal/segstore"
	"pinpoint/internal/serve"
)

// runtimeWorkers resolves the 0 = all-CPUs flag convention for reporting.
func runtimeWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// parseInputs parses the -input list. An -input that was given but lists no
// usable path is a flag error and must be rejected before the server starts
// listening — not with a log.Fatal from inside the ingest goroutine.
func parseInputs(s string) ([]string, error) {
	out := ingest.SplitPaths(s)
	if len(out) == 0 {
		return nil, errors.New("-input lists no dump paths")
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ihr: ")

	caseName := flag.String("case", "ddos", "scenario: "+strings.Join(experiments.CaseNames, ", ")+" (with -input, supplies the metadata)")
	scaleName := flag.String("scale", "quick", "workload scale: quick or full")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 0, "analysis worker shards (0 = all CPUs, 1 = one inline shard)")
	genWorkers := flag.Int("gen-workers", 0, "measurement generator workers (0 = all CPUs, 1 = inline)")
	input := flag.String("input", "", "comma-separated NDJSON dump paths to analyze instead of live generation (.gz ok, - for stdin)")
	decodeWorkers := flag.Int("decode-workers", 0, "NDJSON decode workers for -input (0 = all CPUs, 1 = inline)")
	storeDir := flag.String("store", "", "segment store directory for crash-safe per-bin persistence; reopening resumes past committed bins")
	follow := flag.String("follow", "", "writer base URL to replicate (e.g. http://writer:8080): run as a read replica tailing its feed instead of analyzing locally")
	flag.Parse()

	// All flag validation happens before the listener opens: a bad flag must
	// fail the command, never kill a server that already accepted traffic.
	if err := experiments.CheckWorkerFlags(flag.CommandLine); err != nil {
		log.Fatal(err)
	}
	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	c, err := experiments.NewCase(*caseName, scale)
	if err != nil {
		log.Fatal(err)
	}
	var inputPaths []string
	if *input != "" {
		if inputPaths, err = parseInputs(*input); err != nil {
			log.Fatal(err)
		}
	}

	if *follow != "" {
		if *input != "" {
			log.Fatal("-follow and -input are mutually exclusive (a replica runs no analysis)")
		}
		if *storeDir != "" {
			log.Fatal("-follow and -store are mutually exclusive (a replica takes its history from the feed)")
		}
		runFollower(*follow, *addr)
		return
	}

	cfg := core.Config{Workers: *workers}
	if cfg.Workers == 0 {
		cfg.Workers = core.AutoWorkers
	}
	// No RetainAlarms: the publisher keeps the wire-form record, so the
	// analyzer does not need a second in-memory copy.
	a := core.New(cfg, c.Platform.ProbeASN, c.Net.Prefixes())
	meta := serve.Meta{
		Case:        c.Name,
		Description: c.Description,
		Start:       c.Start,
		End:         c.End,
	}
	var pub *serve.Publisher
	if *storeDir != "" {
		st, err := segstore.Open(*storeDir)
		if err != nil {
			log.Fatalf("-store: %v", err)
		}
		if rec := st.Recovery(); rec.Truncated > 0 {
			log.Printf("store %s: discarded torn tail (%d bytes)", *storeDir, rec.Truncated)
		}
		pub, err = serve.NewPublisherWithStore(a, meta, st)
		if err != nil {
			log.Fatalf("-store: %v", err)
		}
		if at, ok := pub.Resumed(); ok {
			// The input is replayed from the start to rebuild detector
			// state; bins before the cursor are warmup only — they are
			// never re-committed or re-announced.
			log.Printf("store %s: %d committed bins, resuming at %s (replaying earlier input as warmup)",
				*storeDir, st.Len(), at.Format(time.RFC3339))
		} else {
			log.Printf("store %s: empty, starting fresh", *storeDir)
		}
	} else {
		pub = serve.NewPublisher(a, meta)
	}
	srv := serve.NewServer(pub, serve.Options{Addr: *addr})

	c.Platform.SetWorkers(*genWorkers)
	go runAnalysis(a, pub, c, inputPaths, *decodeWorkers)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	log.Printf("case %s (%s); serving on %s", c.Name, c.Description, *addr)
	if err := srv.ListenAndServe(ctx); err != nil {
		log.Fatal(err)
	}
	log.Print("shut down")
}

// runFollower is the replica role: no analyzer, no ingest — tail the
// writer's replication feed and serve the rebuilt snapshots.
func runFollower(url, addr string) {
	f, err := serve.NewFollower(serve.FollowerOptions{
		URL:  strings.TrimRight(url, "/"),
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.NewServer(f, serve.Options{Addr: addr})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		if err := f.Run(ctx); err != nil && ctx.Err() == nil {
			// Permanent feed failure (protocol or run-identity mismatch): keep
			// serving whatever state was reached, but say why it froze.
			log.Printf("replication stopped: %v", err)
		}
	}()
	log.Printf("replica of %s; serving on %s", url, addr)
	if err := srv.ListenAndServe(ctx); err != nil {
		log.Fatal(err)
	}
	log.Print("shut down")
}

// runAnalysis drives the fused generator (or dump replay) into the engine
// and reports the outcome through the publisher. No lock is shared with the
// HTTP side: the publisher swaps immutable snapshots as bins close.
func runAnalysis(a *core.Analyzer, pub *serve.Publisher, c *experiments.Case, inputPaths []string, decodeWorkers int) {
	t0 := time.Now()
	var err error
	var producer string
	observe := func(n int, _, _ time.Time) { pub.ObserveResults(n) }
	if len(inputPaths) > 0 {
		var st ingest.Stats
		st, err = a.RunFiles(context.Background(), inputPaths, ingest.Options{Workers: decodeWorkers}, observe)
		producer = fmt.Sprintf("%d decode workers, %d dump lines (%d decoded, %d skipped)",
			runtimeWorkers(decodeWorkers), st.Lines, st.Results, st.Skipped)
	} else {
		err = a.RunPlatform(context.Background(), c.Platform, c.Start, c.End, observe)
		producer = fmt.Sprintf("%d generator workers", c.Platform.Workers())
	}
	a.Close()
	pub.Finish(err)
	if n := a.Aggregator().DroppedStale(); n > 0 {
		log.Printf("%d late alarms/bins rejected (closed bins are immutable)", n)
	}
	if err != nil {
		log.Printf("analysis run FAILED: %v", err)
		return
	}
	elapsed := time.Since(t0)
	log.Printf("analysis complete: %d results in %s (%.0f results/s; %d engine workers, %s)",
		a.Results(), elapsed.Round(time.Millisecond), float64(a.Results())/elapsed.Seconds(),
		a.Workers(), producer)
}
