package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// The tables in this file are the single source of every name the
// benchmark prints: BENCHMARK.json is generated from them (-emit-benchmark-json),
// the run prints from them, and the smoke test checks the two against each
// other, so the file and the program cannot drift.

// Workload names.
const (
	wReplay = "replay_internet"
	wLive   = "live_fused"
	wChain  = "ihr_chain"
	wRead   = "read_tier"
)

type workloadDef struct {
	Name string
	Why  string // one line: what runs and which layers it bypasses
	Op   string // the unit ops_per_s, cpu_us_per_op and latency count in
}

var workloads = []workloadDef{
	{wReplay, "archive replay: NDJSON file -> decode -> detectors -> events; decode and extraction dominate, netsim/atlas and serve do nothing", "traceroute result"},
	{wLive, "fused live run: generator -> detectors with no NDJSON, so trace/ingest are bypassed and a decoder change must show no change here", "traceroute result"},
	{wChain, "IHR operator: pre-decoded DDoS results -> analyzer -> publisher -> fsync'd segment store -> feed -> follower over loopback HTTP, read at 200 req/s; netsim/trace/ingest do nothing", "traceroute result"},
	{wRead, "IHR reader: a closed-loop keep-alive client against a caught-up follower of a completed run; only serve HTTP runs, every pipeline change must leave it unchanged", "HTTP read"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen
	Doc    string  // what it measures (README, -list)
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// End-to-end metrics: what a user of the pipeline sees. Every run reports
// all of them, so each is defined for every workload (the op is the
// workload's own unit of work, see workloadDef.Op).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "fixture build + Workers=1 reference pass (+ on read_tier the complete run behind a caught-up follower), before the first timed pass; median over the set-ups of one run"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "ops / pass wall time: results through Flush/Events (replay_internet, live_fused), results through Finish (ihr_chain), completed reads per 1 s slice (read_tier); median over passes"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "process user+sys CPU (getrusage) over the pass / ops - cost that parallelism cannot hide; on the chain workloads it includes the in-process load generator"},
	{Name: "state_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Doc: "HeapAlloc after forced collections with the finished pipeline (read_tier: the served writer+follower) still referenced, minus the value before it was built; the fixture is excluded"},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "how long the user waits: archive in -> events out for one pass (replay_internet, live_fused); boundary result handed to the analyzer -> that bin's delta visible on the follower (ihr_chain, per-pass median); full GET of the delay-alarm page at the client (read_tier, per-slice median)"},
}

// Per-layer metrics, measured by the traced run from outside each layer's
// exported functions. A layer the workload bypasses reports zero.
var perLayer = []metricDef{
	{Name: "atlas.gen_ns_per_result_w1", Unit: "ns", Better: "lower", Moves: "ops_per_s, cpu_us_per_op on live_fused; setup_s everywhere; nothing on replay_internet"},
	{Name: "atlas.gen_ns_per_result_wN", Unit: "ns", Better: "lower", Moves: "same as _w1; the pair says whether generator workers scale on this host"},
	{Name: "atlas.gen_allocs_per_result", Unit: "count", Better: "lower", Moves: "cpu_us_per_op on live_fused"},

	{Name: "trace.encode_ns_per_result", Unit: "ns", Better: "lower", Moves: "setup_s on replay_internet"},
	{Name: "trace.decode_ns_per_result", Unit: "ns", Better: "lower", Moves: "ops_per_s, cpu_us_per_op on replay_internet; nothing on live_fused/ihr_chain"},
	{Name: "trace.decode_allocs_per_result", Unit: "count", Better: "lower", Moves: "cpu_us_per_op on replay_internet"},
	{Name: "trace.bytes_per_result", Unit: "B", Better: "lower", Moves: "ops_per_s on replay_internet (bytes scanned)"},

	{Name: "ingest.results_per_s_w1", Unit: "1/s", Better: "higher", Moves: "ops_per_s on replay_internet only"},
	{Name: "ingest.results_per_s_wN", Unit: "1/s", Better: "higher", Moves: "ops_per_s on replay_internet only"},
	{Name: "ingest.skipped_lines", Unit: "count", Better: "lower", Moves: "failed ops on replay_internet"},

	{Name: "ident.intern_ns_per_result", Unit: "ns", Better: "lower", Moves: "ops_per_s on replay_internet, live_fused, ihr_chain (small share)"},
	{Name: "ipmap.lookup_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s on the three pipeline workloads (alarm aggregation only)"},

	{Name: "delay.extract_ns_per_result", Unit: "ns", Better: "lower", Moves: "ops_per_s on the three pipeline workloads"},
	{Name: "delay.samples_per_result", Unit: "count", Better: "lower", Moves: "work handed to the shards per result"},
	{Name: "delay.observe_ns_per_result", Unit: "ns", Better: "lower", Moves: "ops_per_s on the three pipeline workloads"},
	{Name: "delay.close_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p50 on ihr_chain"},
	{Name: "delay.links_seen", Unit: "count", Better: "higher", Moves: "state_mb"},
	{Name: "delay.alarms", Unit: "count", Better: "higher", Moves: "work for events/serve"},

	{Name: "forwarding.extract_ns_per_result", Unit: "ns", Better: "lower", Moves: "ops_per_s on the three pipeline workloads"},
	{Name: "forwarding.contribs_per_result", Unit: "count", Better: "lower", Moves: "work handed to the shards per result"},
	{Name: "forwarding.observe_ns_per_result", Unit: "ns", Better: "lower", Moves: "ops_per_s on the three pipeline workloads"},
	{Name: "forwarding.close_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p50 on ihr_chain"},
	{Name: "forwarding.routers_seen", Unit: "count", Better: "higher", Moves: "state_mb"},
	{Name: "forwarding.alarms", Unit: "count", Better: "higher", Moves: "work for events/serve"},

	{Name: "stats.median_wilson_ns_per_sample", Unit: "ns", Better: "lower", Moves: "delay.close_ms_p50 -> latency_ms_p50 on ihr_chain"},

	{Name: "engine.results_per_s_w1", Unit: "1/s", Better: "higher", Moves: "ops_per_s on the three pipeline workloads; state_mb"},
	{Name: "engine.results_per_s_wN", Unit: "1/s", Better: "higher", Moves: "same; w1 vs wN answers whether N shards beat one on this host"},
	{Name: "engine.close_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p50 on ihr_chain"},
	{Name: "engine.allocs_per_result", Unit: "count", Better: "lower", Moves: "cpu_us_per_op on the three pipeline workloads"},

	{Name: "core.results_per_s_w1", Unit: "1/s", Better: "higher", Moves: "ops_per_s on ihr_chain"},
	{Name: "core.results_per_s_wN", Unit: "1/s", Better: "higher", Moves: "ops_per_s on ihr_chain"},
	{Name: "core.close_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p50 on ihr_chain"},
	{Name: "events.add_ns_per_alarm", Unit: "ns", Better: "lower", Moves: "core.close_ms_p50"},
	{Name: "events.events_us", Unit: "us", Better: "lower", Moves: "latency_ms_p50 on replay_internet, live_fused (tail of the pass)"},

	{Name: "serve.publish_commit_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p50, ops_per_s on ihr_chain; nothing elsewhere (fsync time is this sandbox's filesystem)"},
	{Name: "segstore.append_us_p50", Unit: "us", Better: "lower", Moves: "serve.publish_commit_ms_p50"},
	{Name: "segstore.bytes_per_bin", Unit: "B", Better: "lower", Moves: "exact; disk per closed bin"},
	{Name: "segstore.open_ms", Unit: "ms", Better: "lower", Moves: "restart time (not in a timed pass)"},
	{Name: "segstore.record_read_us_p50", Unit: "us", Better: "lower", Moves: "follower.catchup_ms via store-synthesized deltas"},

	{Name: "feed.replicate_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p50 on ihr_chain"},
	{Name: "feed.replicate_ms_p95", Unit: "ms", Better: "lower", Moves: "chain.visible_lag_ms_p95"},
	{Name: "feed.bytes_per_delta", Unit: "B", Better: "lower", Moves: "feed.replicate_ms_p50"},
	{Name: "follower.seq_lag_max", Unit: "count", Better: "lower", Moves: "growing across a pass means the feed rate is not sustainable"},
	{Name: "follower.resyncs", Unit: "count", Better: "lower", Moves: "failed ops on ihr_chain"},
	{Name: "follower.catchup_ms", Unit: "ms", Better: "lower", Moves: "setup_s on read_tier"},

	{Name: "serve.handler_us_p50", Unit: "us", Better: "lower", Moves: "latency_ms_p50, ops_per_s on read_tier"},
	{Name: "serve.handler_us_p99", Unit: "us", Better: "lower", Moves: "serve.read_us_p99"},
	{Name: "serve.handler_allocs_per_read", Unit: "count", Better: "lower", Moves: "cpu_us_per_op on read_tier"},
	{Name: "serve.read_us_p50", Unit: "us", Better: "lower", Moves: "the read side of ihr_chain (open loop, from due time); equals latency_ms_p50 on read_tier"},
	{Name: "serve.read_us_p99", Unit: "us", Better: "lower", Moves: "reported, not gated: tails on a shared 2-core host do not repeat"},
	{Name: "serve.bytes_per_read", Unit: "B", Better: "lower", Moves: "latency_ms_p50 on read_tier"},
	{Name: "serve.not_modified_ratio", Unit: "ratio", Better: "higher", Moves: "serve.bytes_per_read"},

	{Name: "chain.visible_lag_ms_p95", Unit: "ms", Better: "lower", Moves: "reported for users, kept out of the gated set"},
	{Name: "chain.visible_lag_ms_p99", Unit: "ms", Better: "lower", Moves: "pooled over passes; reported, not gated"},
	{Name: "chain.read_late_ms_max", Unit: "ms", Better: "lower", Moves: "how late the open-loop reader of ihr_chain ever started a read; growing means serve.read_us_* are measured under a backlog"},
	{Name: "chain.close_publish_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p50 on ihr_chain (boundary result in -> delta on the writer's own subscription)"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "nothing: traced minus untraced pass wall time, must stay within 5"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "cmd/bench/run.sh"},
		Paths:      []string{"cmd/bench"},
		RunSeconds: int(scales["full"].Seconds),
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // the whys say "->"
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// printTables is -list: every name with its unit and meaning.
func printTables(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-16s op=%s\n      %s\n", wl.Name, wl.Op, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (gated):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-16s %-4s %s is better, bound %.0f%%\n      %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Doc)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run, not gated) -> what each should move:")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-36s %-6s -> %s\n", m.Name, m.Unit, m.Moves)
	}
}
