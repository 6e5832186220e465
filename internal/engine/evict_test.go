package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/forwarding"
)

// runEvicting pushes the fixture through an Analyzer with idle-state
// eviction enabled on both detectors.
func runEvicting(t testing.TB, fx *fixtureData, workers int) *core.Analyzer {
	t.Helper()
	a := core.New(core.Config{
		RetainAlarms: true,
		Workers:      workers,
		Delay:        delay.Config{EvictIdleBins: 2},
		Forwarding:   forwarding.Config{EvictIdleBins: 2},
	}, fx.probeASN, fx.table)
	for _, r := range fx.results {
		a.Observe(r)
	}
	a.Flush()
	return a
}

// TestEvictionDeterminism is the eviction twin of
// TestShardedMatchesSequential: with EvictIdleBins set, eviction decisions
// depend only on each link's/flow's own sample history, so any shard count
// must produce exactly the sequential run's alarms, events, magnitude
// series and seen-counts. The fixture's link-down window (3 bins) forces
// flows idle past the 2-bin threshold and back, so the evict-and-return
// path is genuinely exercised.
func TestEvictionDeterminism(t *testing.T) {
	fx := fixture(t)
	seq := runEvicting(t, fx, 1)
	if len(seq.DelayAlarms()) == 0 || len(seq.ForwardingAlarms()) == 0 {
		t.Fatalf("weak fixture: %d delay / %d forwarding alarms; want both > 0",
			len(seq.DelayAlarms()), len(seq.ForwardingAlarms()))
	}
	dc, fc := seq.BinCloseStats()
	if dc.Evicted == 0 && fc.Evicted == 0 {
		t.Fatalf("fixture never evicted (delay %d, fwd %d); the test is vacuous", dc.Evicted, fc.Evicted)
	}

	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sh := runEvicting(t, fx, workers)
			defer sh.Close()

			if !reflect.DeepEqual(seq.DelayAlarms(), sh.DelayAlarms()) {
				t.Errorf("delay alarms differ under eviction: sequential %d, sharded %d",
					len(seq.DelayAlarms()), len(sh.DelayAlarms()))
			}
			if !reflect.DeepEqual(seq.ForwardingAlarms(), sh.ForwardingAlarms()) {
				t.Errorf("forwarding alarms differ under eviction: sequential %d, sharded %d",
					len(seq.ForwardingAlarms()), len(sh.ForwardingAlarms()))
			}
			if got, want := sh.LinksSeen(), seq.LinksSeen(); got != want {
				t.Errorf("LinksSeen = %d, want %d", got, want)
			}
			if got, want := sh.RoutersSeen(), seq.RoutersSeen(); got != want {
				t.Errorf("RoutersSeen = %d, want %d", got, want)
			}
			// Per-link-bin close counts sum over the shard partition.
			if sdc, _ := sh.BinCloseStats(); sdc.Links != dc.Links || sdc.Dropped != dc.Dropped ||
				sdc.Rejected != dc.Rejected || sdc.Samples != dc.Samples {
				t.Errorf("delay close stats = %+v, sequential %+v", sdc, dc)
			}
			if got, want := sh.AvgNextHops(), seq.AvgNextHops(); got != want {
				t.Errorf("AvgNextHops = %v, want %v", got, want)
			}

			seqEvents := seq.Aggregator().Events(fx.start, fx.end)
			shEvents := sh.Aggregator().Events(fx.start, fx.end)
			if !reflect.DeepEqual(seqEvents, shEvents) {
				t.Errorf("events differ under eviction")
			}
			for _, asn := range seq.Aggregator().ASes() {
				if !reflect.DeepEqual(
					seq.Aggregator().DelayMagnitude(asn, fx.start, fx.end),
					sh.Aggregator().DelayMagnitude(asn, fx.start, fx.end)) {
					t.Errorf("AS%d delay magnitude series differ under eviction", asn)
				}
				if !reflect.DeepEqual(
					seq.Aggregator().ForwardingMagnitude(asn, fx.start, fx.end),
					sh.Aggregator().ForwardingMagnitude(asn, fx.start, fx.end)) {
					t.Errorf("AS%d forwarding magnitude series differ under eviction", asn)
				}
			}
		})
	}
}
