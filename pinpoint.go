// Package pinpoint reproduces Fontugne, Aben, Pelsser & Bush,
// "Pinpointing Delay and Forwarding Anomalies Using Large-Scale Traceroute
// Measurements" (IMC 2017) as a Go library.
//
// It detects and localizes Internet data-plane disruptions from streams of
// traceroute results:
//
//   - delay changes per IP-level link via differential RTTs, robust medians
//     and Wilson-score confidence intervals (§4 of the paper),
//   - forwarding anomalies per router via learned next-hop patterns and
//     responsibility scores (§5),
//   - per-AS aggregation into severity time series, robust magnitudes and
//     major events (§6).
//
// This root package is the stable facade: it re-exports the pipeline types
// a downstream user needs. The implementation lives in internal/ packages
// (see DESIGN.md for the full inventory), including a network simulator and
// an Atlas-like measurement platform that stand in for the paper's RIPE
// Atlas dataset.
//
// # Quickstart
//
//	topo, _ := netsim.Generate(netsim.TopoConfig{Seed: 1})
//	net, _ := topo.Build(nil)
//	platform := atlas.NewPlatform(net, 1, netsim.TracerouteOpts{})
//	platform.AddProbes(topo.ProbeSites())
//	platform.AddBuiltin(topo.Roots[0].Addr)
//
//	analyzer := pinpoint.New(pinpoint.Config{RetainAlarms: true},
//		platform.ProbeASN, net.Prefixes())
//	platform.Run(from, to, func(r trace.Result) error {
//		analyzer.Observe(r)
//		return nil
//	})
//	analyzer.Flush()
//	events := analyzer.Aggregator().Events(from, to)
//
// Detection always runs on internal/engine: one shard inline on the
// caller's goroutine by default, and setting Config.Workers (or AutoWorkers)
// shards the detectors across CPU cores; the alarms, events and their order
// are guaranteed identical for every worker count. The measurement platform
// (atlas.Platform.SetWorkers) and the dump decoder (ingest.Options.Workers)
// parallelize through one ordered pipeline (internal/pipeline), and
// Analyzer.RunPlatform fuses generator workers and engine shards into one
// backpressured pipeline. See DESIGN.md for the shard, merge and ordered
// pipeline architecture.
//
// The analyzer closes its aggregator at every bin close, so §6 events and
// magnitudes of closed bins are computed once, as the bin closes, and
// queries over them read the result. For serving results while analysis
// runs (§8), Analyzer.OnBinClose then fires with that close's events;
// internal/serve builds the Internet Health Report's snapshot-published read
// model and HTTP API on that hook (see cmd/ihr and examples/streaming_ihr).
//
// See examples/ for complete programs, including the paper's three case
// studies; `go test -bench=.` regenerates the paper-versus-measured record.
package pinpoint

import (
	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/stats"
	"pinpoint/internal/trace"
)

// Config bundles the pipeline configuration; the zero value uses the
// paper's parameters (1-hour bins, z=1.96, ≥3 probe ASes, entropy > 0.5,
// 1 ms minimum shift, τ=−0.25, one-week magnitude windows) on one inline
// engine shard. Set Workers (or AutoWorkers) to shard across CPUs.
type Config = core.Config

// AutoWorkers, assigned to Config.Workers, shards the analysis across all
// usable CPUs.
const AutoWorkers = core.AutoWorkers

// Analyzer is the end-to-end detection pipeline (§4 + §5 + §6).
type Analyzer = core.Analyzer

// New constructs an Analyzer. probeASN resolves probe ids to AS numbers;
// table maps IP addresses to ASes (longest prefix match).
func New(cfg Config, probeASN func(int) (ipmap.ASN, bool), table *ipmap.Table) *Analyzer {
	return core.New(cfg, probeASN, table)
}

// Traceroute data model.
type (
	// Result is one traceroute measurement result.
	Result = trace.Result
	// Hop is the set of replies at one TTL.
	Hop = trace.Hop
	// Reply is one response or timeout at a hop.
	Reply = trace.Reply
	// LinkKey identifies an IP-level link (ordered address pair).
	LinkKey = trace.LinkKey
)

// Detection outputs.
type (
	// DelayAlarm reports an abnormal delay change on one link (§4.2.3).
	DelayAlarm = delay.Alarm
	// ForwardingAlarm reports an anomalous forwarding pattern (§5.2).
	ForwardingAlarm = forwarding.Alarm
	// Event is a major per-AS disruption (magnitude peak, §6).
	Event = events.Event
	// MedianCI is a median with its Wilson-score confidence interval.
	MedianCI = stats.MedianCI
	// ASN is an autonomous system number.
	ASN = ipmap.ASN
)

// Deviation computes d(∆) of Eq 6 — the relative gap between an observed
// and a reference confidence interval.
func Deviation(observed, reference MedianCI) float64 {
	return delay.Deviation(observed, reference)
}

// MedianWilson computes a sample median with its Wilson-score confidence
// interval at the given z (use Z95 for the paper's 95% level).
func MedianWilson(samples []float64, z float64) MedianCI {
	return stats.MedianWilson(samples, z)
}

// Z95 is the normal quantile for 95% two-sided confidence.
const Z95 = stats.Z95
