package pinpoint_test

// One benchmark per table and figure of the paper's evaluation
// (experiments.Registry maps each to its harness). Each bench regenerates
// the artifact at Full scale and reports the headline numbers via
// b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both times the regeneration and prints the measured values next to the
// paper's. Case-study runs are memoized across benches of the same figure
// family (F6–F8 share one DDoS run, F9–F12 one leak run, F5/T1 one
// campaign run), mirroring how the paper derives several figures from one
// dataset.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/experiments"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

func runExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *experiments.Report
	for i := 0; i < b.N; i++ {
		r, err := e.Run(experiments.Full)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = r
	}
	if last == nil {
		return
	}
	for _, m := range metrics {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
	if failed := last.Failed(); len(failed) > 0 {
		for _, c := range failed {
			b.Logf("claim failed: %s — measured %s (paper %s)", c.Name, c.Measured, c.Paper)
		}
		b.Errorf("%s: %d paper claims failed", id, len(failed))
	}
}

func BenchmarkFig02MedianStability(b *testing.B) {
	runExperiment(b, "F2", "raw_stddev_ms", "median_band", "alarms")
}

func BenchmarkFig03Normality(b *testing.B) {
	runExperiment(b, "F3", "ppcc_median", "ppcc_mean", "outliers")
}

func BenchmarkFig04ForwardingExample(b *testing.B) {
	runExperiment(b, "F4", "rho")
}

func BenchmarkFig05aMagnitudeCCDF(b *testing.B) {
	runExperiment(b, "F5", "delay_below_1", "delay_max")
}

func BenchmarkFig05bForwardingCDF(b *testing.B) {
	runExperiment(b, "F5", "fwd_min", "fwd_below_-10")
}

func BenchmarkFig06KrootMagnitude(b *testing.B) {
	runExperiment(b, "F6", "peak_attack1", "peak_attack2", "peak_outside")
}

func BenchmarkFig07PerLinkDelays(b *testing.B) {
	runExperiment(b, "F7", "both_a1", "both_a2", "spared_alarms", "upstream_a1")
}

func BenchmarkFig08AlarmGraph(b *testing.B) {
	runExperiment(b, "F8", "component_nodes", "component_edges", "root_alarms")
}

func BenchmarkFig09LeakDelayMagnitude(b *testing.B) {
	runExperiment(b, "F9", "victim0_in_peak", "victim1_in_peak")
}

func BenchmarkFig10LeakForwardingMagnitude(b *testing.B) {
	runExperiment(b, "F10", "victim0_in_min", "victim1_in_min")
}

func BenchmarkFig11LeakLinks(b *testing.B) {
	runExperiment(b, "F11", "linkA_alarms", "linkA_shift_ms", "linkB_gap_bins", "linkB_late_alarms")
}

func BenchmarkFig12LeakGraph(b *testing.B) {
	runExperiment(b, "F12", "nodes", "edges", "flagged")
}

func BenchmarkFig13IXPOutage(b *testing.B) {
	runExperiment(b, "F13", "fwd_min_in", "delay_max_in", "lan_pairs")
}

func BenchmarkTab01AggregateStats(b *testing.B) {
	runExperiment(b, "T1", "links_seen", "alarm_fraction", "routers_modeled", "avg_next_hops")
}

func BenchmarkTab02DetectionLimits(b *testing.B) {
	runExperiment(b, "T2", "builtin_shortest_min", "anchoring_shortest_min")
}

func BenchmarkAbl01MedianVsMean(b *testing.B) {
	runExperiment(b, "A1", "median_alarms", "mean_alarms")
}

func BenchmarkAbl02DiversityFilter(b *testing.B) {
	runExperiment(b, "A2", "filtered_alarms", "unfiltered_alarms")
}

func BenchmarkAbl03ASCancellation(b *testing.B) {
	runExperiment(b, "A3", "net", "gross")
}

// Sharded-engine throughput: the same pre-generated campaign pushed through
// the analyzer at 1/2/4/8 workers. Workers=1 is the exact legacy sequential
// path and the baseline; higher counts exercise internal/engine's shard
// fan-out and parallel bin-close. Output is bit-identical across all rows
// (internal/engine tests assert it); this bench measures only ingest +
// bin-close wall time. results/s is the headline metric; the recorded
// numbers are cmd/bench's engine.results_per_s_w1 / _wN rows
// (cmd/bench/results/set-a.trace.json). On a single-core host the rows
// should be within noise of each other — the speedup needs real cores.

// benchStart and benchPlatform define the one benchmark campaign both the
// engine and pipeline fixtures share (a 27-AS toy next to the internet
// fixture behind the recorded cmd/bench rows, kept because it is quick):
// seed-42 topology, all stub probes, one builtin root measurement, three
// anchoring measurements, 24 hours. Only the scenario differs per fixture.
var benchStart = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

func benchPlatform(scenario *netsim.Scenario) (*atlas.Platform, error) {
	topo, err := netsim.Generate(netsim.TopoConfig{
		Seed: 42, Tier1: 3, Transit: 8, Stub: 24,
		Roots: 1, RootInstances: 4, Anchors: 4,
	})
	if err != nil {
		return nil, err
	}
	net, err := topo.Build(scenario)
	if err != nil {
		return nil, err
	}
	platform := atlas.NewPlatform(net, 42, netsim.TracerouteOpts{})
	platform.AddProbes(topo.ProbeSites())
	platform.AddBuiltin(topo.Roots[0].Addr)
	var ids []int
	for _, pr := range platform.Probes() {
		ids = append(ids, pr.ID)
	}
	for _, a := range topo.Anchors[:3] {
		platform.AddAnchoring(a.Addr, ids)
	}
	return platform, nil
}

// benchCongestion recreates the engine fixture's 2-hour congestion event on
// the root's first instance link.
func benchCongestion(topoSeed uint64) (*netsim.Scenario, error) {
	topo, err := netsim.Generate(netsim.TopoConfig{
		Seed: topoSeed, Tier1: 3, Transit: 8, Stub: 24,
		Roots: 1, RootInstances: 4, Anchors: 4,
	})
	if err != nil {
		return nil, err
	}
	root := topo.Roots[0]
	return netsim.NewScenario(netsim.Event{
		Name: "congestion", Kind: netsim.EventCongestion,
		From: root.Sites[0], To: root.Instances[0], Both: true,
		ExtraDelayMS: 80, Loss: 0.02,
		Start: benchStart.Add(12 * time.Hour), End: benchStart.Add(14 * time.Hour),
	}), nil
}

var (
	engineBenchOnce    sync.Once
	engineBenchResults []trace.Result
	engineBenchASN     func(int) (ipmap.ASN, bool)
	engineBenchTable   *ipmap.Table
	engineBenchErr     error
)

func engineBenchFixture(b *testing.B) {
	b.Helper()
	engineBenchOnce.Do(func() {
		scenario, err := benchCongestion(42)
		if err != nil {
			engineBenchErr = err
			return
		}
		platform, err := benchPlatform(scenario)
		if err != nil {
			engineBenchErr = err
			return
		}
		engineBenchResults, engineBenchErr = platform.Collect(benchStart, benchStart.Add(24*time.Hour))
		engineBenchASN = platform.ProbeASN
		engineBenchTable = platform.Net().Prefixes()
	})
	if engineBenchErr != nil {
		b.Fatalf("engine bench fixture: %v", engineBenchErr)
	}
}

// BenchmarkIngest isolates the sample-extraction + detector-ingest path —
// the per-result work the identity layer (internal/ident) and the columnar
// detector state are designed to make allocation-free. It drives the two
// sequential detectors directly, without the engine or the aggregator, so
// allocs/op tracks exactly the path cmd/bench records as
// ident.intern_ns_per_result and delay/forwarding.extract_ns_per_result.
func BenchmarkIngest(b *testing.B) {
	engineBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dd := delay.NewDetector(delay.Config{Seed: 1}, engineBenchASN)
		fd := forwarding.NewDetector(forwarding.Config{})
		for _, r := range engineBenchResults {
			dd.Observe(r)
			fd.Observe(r)
		}
		dd.Flush()
		fd.Flush()
	}
	perOp := b.Elapsed().Seconds() / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(len(engineBenchResults))/perOp, "results/s")
	}
}

// End-to-end fused pipeline: generation AND analysis, scaled together. Each
// op regenerates the 24h campaign through Analyzer.RunPlatform with w
// generator workers feeding w engine shards (workers=1 is fully sequential:
// heap scheduler → legacy detector pair on one goroutine). The parallel
// stream is bit-identical to sequential (internal/atlas and internal/core
// equivalence tests), so rows differ only in wall time. results/s is the
// headline; the recorded numbers are cmd/bench's live_fused workload
// (cmd/bench/results/set-a.json). On a single-core host the rows measure
// coordination overhead, not speedup.

var (
	pipelineBenchOnce sync.Once
	pipelineBenchPlat *atlas.Platform
	pipelineBenchErr  error
)

func pipelineBenchFixture(b *testing.B) {
	b.Helper()
	pipelineBenchOnce.Do(func() {
		pipelineBenchPlat, pipelineBenchErr = benchPlatform(nil)
	})
	if pipelineBenchErr != nil {
		b.Fatalf("pipeline bench fixture: %v", pipelineBenchErr)
	}
}

func BenchmarkPipeline(b *testing.B) {
	pipelineBenchFixture(b)
	start, end := benchStart, benchStart.Add(24*time.Hour)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				pipelineBenchPlat.SetWorkers(workers)
				a := core.New(core.Config{Workers: workers},
					pipelineBenchPlat.ProbeASN, pipelineBenchPlat.Net().Prefixes())
				if err := a.RunPlatform(context.Background(), pipelineBenchPlat, start, end); err != nil {
					b.Fatal(err)
				}
				total = a.Results()
				a.Close()
			}
			perOp := b.Elapsed().Seconds() / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(total)/perOp, "results/s")
			}
		})
	}
}

func BenchmarkAnalyzerSharded(b *testing.B) {
	engineBenchFixture(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := core.New(core.Config{Workers: workers}, engineBenchASN, engineBenchTable)
				a.ObserveBatch(engineBenchResults)
				a.Flush()
				a.Close()
			}
			perOp := b.Elapsed().Seconds() / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(len(engineBenchResults))/perOp, "results/s")
			}
		})
	}
}
