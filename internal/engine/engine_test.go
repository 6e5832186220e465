package engine_test

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/engine"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

// fixture is a seeded netsim campaign: a mid-size topology with a
// congestion event, builtin measurements to the root and anchoring
// measurements to two anchors, collected once and shared by every test.
type fixtureData struct {
	results  []trace.Result
	probeASN func(int) (ipmap.ASN, bool)
	table    *ipmap.Table
	start    time.Time
	end      time.Time
}

var (
	fixtureOnce sync.Once
	fixtureVal  *fixtureData
	fixtureErr  error
)

func fixture(t testing.TB) *fixtureData {
	t.Helper()
	fixtureOnce.Do(func() {
		topo, err := netsim.Generate(netsim.TopoConfig{
			Seed: 7, Tier1: 2, Transit: 4, Stub: 12,
			Roots: 1, RootInstances: 3, Anchors: 2,
		})
		if err != nil {
			fixtureErr = err
			return
		}
		start := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
		root := topo.Roots[0]
		// A congestion window exercises the §4 delay path; a link-down
		// window reroutes flows, exercising the §5 forwarding path.
		scenario := netsim.NewScenario(
			netsim.Event{
				Name: "congestion", Kind: netsim.EventCongestion,
				From: root.Sites[0], To: root.Instances[0], Both: true,
				ExtraDelayMS: 80, Loss: 0.02,
				Start: start.Add(36 * time.Hour), End: start.Add(38 * time.Hour),
			},
			netsim.Event{
				Name: "down", Kind: netsim.EventLinkDown,
				From: root.Sites[1], To: root.Instances[1], Both: true,
				Start: start.Add(40 * time.Hour), End: start.Add(43 * time.Hour),
			},
		)
		net, err := topo.Build(scenario)
		if err != nil {
			fixtureErr = err
			return
		}
		platform := atlas.NewPlatform(net, 11, netsim.TracerouteOpts{})
		platform.AddProbes(topo.ProbeSites())
		platform.AddBuiltin(root.Addr)
		for _, a := range topo.Anchors[:2] {
			var ids []int
			for _, pr := range platform.Probes() {
				ids = append(ids, pr.ID)
			}
			platform.AddAnchoring(a.Addr, ids)
		}
		end := start.Add(46 * time.Hour)
		results, err := platform.Collect(start, end)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureVal = &fixtureData{
			results:  results,
			probeASN: platform.ProbeASN,
			table:    net.Prefixes(),
			start:    start,
			end:      end,
		}
	})
	if fixtureErr != nil {
		t.Fatalf("fixture: %v", fixtureErr)
	}
	return fixtureVal
}

// runAnalyzer pushes the whole fixture through an Analyzer with the given
// worker count and returns it flushed.
func runAnalyzer(t testing.TB, fx *fixtureData, workers int) *core.Analyzer {
	t.Helper()
	a := core.New(core.Config{RetainAlarms: true, Workers: workers}, fx.probeASN, fx.table)
	for _, r := range fx.results {
		a.Observe(r)
	}
	a.Flush()
	return a
}

// TestShardedMatchesSequential is the engine's key invariant: for any shard
// count the sharded run produces exactly the same alarms, statistics,
// magnitude series and events as the sequential path — same values, same
// order.
func TestShardedMatchesSequential(t *testing.T) {
	fx := fixture(t)
	seq := runAnalyzer(t, fx, 1)
	if len(seq.DelayAlarms()) == 0 || len(seq.ForwardingAlarms()) == 0 {
		t.Fatalf("weak fixture: %d delay / %d forwarding alarms; want both > 0",
			len(seq.DelayAlarms()), len(seq.ForwardingAlarms()))
	}

	for _, workers := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sh := runAnalyzer(t, fx, workers)
			defer sh.Close()
			if sh.Workers() != workers {
				t.Fatalf("Workers() = %d, want %d", sh.Workers(), workers)
			}

			if !reflect.DeepEqual(seq.DelayAlarms(), sh.DelayAlarms()) {
				t.Errorf("delay alarms differ: sequential %d, sharded %d",
					len(seq.DelayAlarms()), len(sh.DelayAlarms()))
			}
			if !reflect.DeepEqual(seq.ForwardingAlarms(), sh.ForwardingAlarms()) {
				t.Errorf("forwarding alarms differ: sequential %d, sharded %d",
					len(seq.ForwardingAlarms()), len(sh.ForwardingAlarms()))
			}

			if got, want := sh.LinksSeen(), seq.LinksSeen(); got != want {
				t.Errorf("LinksSeen = %d, want %d", got, want)
			}
			if got, want := sh.RoutersSeen(), seq.RoutersSeen(); got != want {
				t.Errorf("RoutersSeen = %d, want %d", got, want)
			}
			if got, want := sh.AvgNextHops(), seq.AvgNextHops(); got != want {
				t.Errorf("AvgNextHops = %v, want %v", got, want)
			}

			seqEvents := seq.Aggregator().Events(fx.start, fx.end)
			shEvents := sh.Aggregator().Events(fx.start, fx.end)
			if !reflect.DeepEqual(seqEvents, shEvents) {
				t.Errorf("events differ: sequential %v, sharded %v", seqEvents, shEvents)
			}

			for _, asn := range seq.Aggregator().ASes() {
				sm := seq.Aggregator().DelayMagnitude(asn, fx.start, fx.end)
				hm := sh.Aggregator().DelayMagnitude(asn, fx.start, fx.end)
				if !reflect.DeepEqual(sm, hm) {
					t.Errorf("AS%d delay magnitude series differ", asn)
				}
				sf := seq.Aggregator().ForwardingMagnitude(asn, fx.start, fx.end)
				hf := sh.Aggregator().ForwardingMagnitude(asn, fx.start, fx.end)
				if !reflect.DeepEqual(sf, hf) {
					t.Errorf("AS%d forwarding magnitude series differ", asn)
				}
			}
		})
	}
}

// TestBatchedMatchesPerResult feeds the same stream through ObserveBatch
// in awkward chunks to an engine that hands the shards work every 17
// results, mid-bin, and expects the one-worker analyzer's alarms in its
// order.
func TestBatchedMatchesPerResult(t *testing.T) {
	fx := fixture(t)
	seq := runAnalyzer(t, fx, 1)

	e := engine.New(engine.WithBatch(engine.Config{Workers: 4}, 17), fx.probeASN)
	defer e.Close()
	var da []delay.Alarm
	var fa []forwarding.Alarm
	for i := 0; i < len(fx.results); i += 97 {
		d, f := e.ObserveBatch(fx.results[i:min(i+97, len(fx.results))])
		da, fa = append(da, d...), append(fa, f...)
	}
	d, f, _, _ := e.Flush()
	da, fa = append(da, d...), append(fa, f...)

	if !reflect.DeepEqual(seq.DelayAlarms(), da) {
		t.Errorf("delay alarms differ under batching")
	}
	if !reflect.DeepEqual(seq.ForwardingAlarms(), fa) {
		t.Errorf("forwarding alarms differ under batching")
	}
}

// TestEngineDirect drives the engine API without the core facade: alarms
// must come back merged in (bin, key) order and Flush must reopen cleanly.
func TestEngineDirect(t *testing.T) {
	fx := fixture(t)
	e := engine.New(engine.WithBatch(engine.Config{Workers: 4}, 8), fx.probeASN)
	defer e.Close()

	var da, fa int
	lastBin := time.Time{}
	for _, r := range fx.results {
		d, f := e.Observe(r)
		for _, al := range d {
			if al.Bin.Before(lastBin) {
				t.Fatalf("delay alarm bins out of order: %s after %s", al.Bin, lastBin)
			}
			lastBin = al.Bin
		}
		da += len(d)
		fa += len(f)
	}
	d, f, _, ok := e.Flush()
	if !ok {
		t.Error("Flush closed no bin")
	}
	da += len(d)
	fa += len(f)
	if da == 0 || fa == 0 {
		t.Fatalf("engine produced %d delay / %d forwarding alarms; want both > 0", da, fa)
	}

	st := e.Stats()
	if st.LinksSeen == 0 || st.RoutersSeen == 0 {
		t.Fatalf("empty stats: %+v", st)
	}

	// Flush closed the bin; a second Flush must yield nothing.
	if d, f, _, ok := e.Flush(); ok || len(d) != 0 || len(f) != 0 {
		t.Errorf("second Flush closed a bin (%t) with %d/%d alarms, want none", ok, len(d), len(f))
	}

	// The engine must accept a new stream after Flush.
	if _, _ = e.Observe(fx.results[len(fx.results)-1]); false {
		t.Fatal("unreachable")
	}
	e.Flush()
}

// TestEngineStress hammers an 8-shard engine that hands off every 5
// results with interleaved Observe, Stats and Flush calls; it exists to run
// under the race detector, where any unsynchronized access across the shard
// channel boundary fails the build (`go test -race ./internal/engine/...`).
// The Observer hooks count without a lock: the engine serializes them.
func TestEngineStress(t *testing.T) {
	fx := fixture(t)
	hookCalls := 0
	cfg := engine.Config{
		Workers:    8,
		Delay:      delay.Config{Observer: func(delay.Observation) { hookCalls++ }},
		Forwarding: forwarding.Config{Observer: func(forwarding.Observation) { hookCalls++ }},
	}
	e := engine.New(engine.WithBatch(cfg, 5), fx.probeASN)
	defer e.Close()
	for i, r := range fx.results {
		e.Observe(r)
		if i%1000 == 0 {
			_ = e.Stats() // Stats barrier interleaved with ingestion
		}
	}
	e.Flush()
	e.Flush() // idempotent
	if e.Stats().LinksSeen == 0 {
		t.Fatal("no links seen")
	}
	if hookCalls == 0 {
		t.Fatal("hooks never fired")
	}
}

// TestUseAfterClose: a closed engine must degrade to no-ops (and serve the
// last gathered stats), never panic on its closed shard channels.
func TestUseAfterClose(t *testing.T) {
	fx := fixture(t)
	for _, workers := range []int{1, 2} {
		e := engine.New(engine.Config{Workers: workers}, fx.probeASN)
		for _, r := range fx.results[:200] {
			e.Observe(r)
		}
		e.Flush()
		want := e.Stats()
		e.Close()

		if d, f := e.Observe(fx.results[0]); d != nil || f != nil {
			t.Error("Observe after Close returned alarms")
		}
		if d, f, _, ok := e.Flush(); ok || d != nil || f != nil {
			t.Error("Flush after Close closed a bin")
		}
		if got := e.Stats(); got != want {
			t.Errorf("Stats after Close = %+v, want %+v", got, want)
		}
		e.Close() // still idempotent
	}
}

// TestObserversSerializedAcrossShards: the detectors' Observer hooks fire
// during the bin close, which with several workers runs on every shard's
// goroutine at once. The engine serializes the calls, so a plain map-filling
// hook — what internal/experiments passes — is race-free (this test runs
// under -race) and sees the same multiset of observations as one inline
// shard; only their cross-shard order is unspecified.
func TestObserversSerializedAcrossShards(t *testing.T) {
	fx := fixture(t)
	type linkBin struct {
		link trace.LinkKey
		bin  time.Time
	}
	type flowBin struct {
		router, dst netip.Addr
		bin         time.Time
	}
	run := func(workers int) (map[linkBin]int, map[flowBin]int) {
		links, flows := map[linkBin]int{}, map[flowBin]int{}
		cfg := engine.Config{Workers: workers}
		cfg.Delay.Observer = func(o delay.Observation) { links[linkBin{o.Link, o.Bin}]++ }
		cfg.Forwarding.Observer = func(o forwarding.Observation) { flows[flowBin{o.Router, o.Dst, o.Bin}]++ }
		e := engine.New(cfg, fx.probeASN)
		defer e.Close()
		e.ObserveBatch(fx.results)
		e.Flush()
		return links, flows
	}
	wantLinks, wantFlows := run(1)
	if len(wantLinks) == 0 || len(wantFlows) == 0 {
		t.Fatalf("weak fixture: %d link-bin / %d flow-bin observations", len(wantLinks), len(wantFlows))
	}
	gotLinks, gotFlows := run(4)
	if !reflect.DeepEqual(wantLinks, gotLinks) {
		t.Errorf("delay observations differ: %d link-bins at 4 workers, %d at 1", len(gotLinks), len(wantLinks))
	}
	if !reflect.DeepEqual(wantFlows, gotFlows) {
		t.Errorf("forwarding observations differ: %d flow-bins at 4 workers, %d at 1", len(gotFlows), len(wantFlows))
	}
}
