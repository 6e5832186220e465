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
// The input flags (-case, -scale, -gen-workers, -input, -decode-workers,
// -workers, -store) are the ones cmd/pinpoint and cmd/atlasgen share
// (internal/experiments.DefineInputs), checked before the listener opens.
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
// is a replica's only source of history, and it builds no input: -follow
// rejects every writer input flag, -store and -input among them.
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
	"flag"
	"fmt"
	"log"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/experiments"
	"pinpoint/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ihr: ")

	src := experiments.DefineInputs(flag.CommandLine, "ddos", experiments.Replay)
	addr := flag.String("addr", ":8080", "HTTP listen address")
	follow := flag.String("follow", "", "writer base URL to replicate (e.g. http://writer:8080): run as a read replica tailing its feed instead of analyzing locally")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// All flag validation happens before the listener opens: a bad flag must
	// fail the command, never kill a server that already accepted traffic.
	var srv *serve.Server
	if *follow != "" {
		// A replica builds no input: every flag but -addr is the writer's.
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "addr" && f.Name != "follow" {
				log.Fatalf("-follow and -%s are mutually exclusive (a replica runs no analysis; the feed is its history)", f.Name)
			}
		})
		srv = startFollower(ctx, *follow, *addr)
	} else {
		if err := src.Build(nil); err != nil {
			log.Fatal(err)
		}
		c := src.Case
		// No RetainAlarms: the publisher keeps the wire-form record, so the
		// analyzer does not need a second in-memory copy.
		a := core.New(core.Config{Workers: src.Workers}, src.ProbeASN, src.Table)
		meta := serve.Meta{Case: c.Name, Description: c.Description, Start: c.Start, End: c.End}
		pub, err := serve.OpenPublisher(a, meta, src.Store, log.Printf)
		if err != nil {
			log.Fatalf("-store: %v", err)
		}
		srv = serve.NewServer(pub, serve.Options{Addr: *addr})
		go runAnalysis(a, pub, src)
		log.Printf("case %s (%s); serving on %s", c.Name, c.Description, *addr)
	}
	if err := srv.ListenAndServe(ctx); err != nil {
		log.Fatal(err)
	}
	log.Print("shut down")
}

// startFollower starts the replica role: no analyzer, no ingest — it tails
// the writer's replication feed until ctx ends, and the returned server
// serves the rebuilt snapshots.
func startFollower(ctx context.Context, url, addr string) *serve.Server {
	f, err := serve.NewFollower(serve.FollowerOptions{
		URL:  strings.TrimRight(url, "/"),
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := f.Run(ctx); err != nil && ctx.Err() == nil {
			// Permanent feed failure (protocol or run-identity mismatch): keep
			// serving whatever state was reached, but say why it froze.
			log.Printf("replication stopped: %v", err)
		}
	}()
	log.Printf("replica of %s; serving on %s", url, addr)
	return serve.NewServer(f, serve.Options{Addr: addr})
}

// runAnalysis drives the fused generator (or dump replay) into the engine
// and reports the outcome through the publisher. No lock is shared with the
// HTTP side: the publisher swaps immutable snapshots as bins close.
func runAnalysis(a *core.Analyzer, pub *serve.Publisher, src *experiments.Source) {
	r, err := src.Run(context.Background(), a, nil, func(n int, _, _ time.Time) { pub.ObserveResults(n) })
	a.Close()
	pub.Finish(err)
	if n := a.Aggregator().DroppedStale(); n > 0 {
		log.Printf("%d late alarms/bins rejected (closed bins are immutable)", n)
	}
	if err != nil {
		log.Printf("analysis run FAILED: %v", err)
		return
	}
	producer := fmt.Sprintf("%d generator workers", r.GenWorkers)
	if src.Mode == experiments.Replay {
		producer = fmt.Sprintf("%d decode workers, %d dump lines (%d decoded, %d skipped)",
			r.DecodeWorkers, r.Stats.Lines, r.Stats.Results, r.Stats.Skipped)
	}
	log.Printf("analysis complete: %d results in %s (%.0f results/s; %d engine workers, %s)",
		a.Results(), r.Elapsed.Round(time.Millisecond), float64(a.Results())/r.Elapsed.Seconds(),
		a.Workers(), producer)
}
