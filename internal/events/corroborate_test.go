package events

import (
	"net/netip"
	"testing"
	"time"

	"pinpoint/internal/forwarding"
)

// fwdAlarm builds a one-hop forwarding alarm implicating the given next-hop
// address with the given responsibility.
func fwdAlarm(bin time.Time, hop string, resp float64) forwarding.Alarm {
	return forwarding.Alarm{
		Bin:    bin,
		Router: netip.MustParseAddr("10.1.0.1"),
		Dst:    netip.MustParseAddr("198.51.100.1"),
		Rho:    -0.6,
		Hops:   []forwarding.HopScore{{Hop: netip.MustParseAddr(hop), Responsibility: resp}},
	}
}

// surgeSchedule feeds a quiet week of tiny positive responsibilities on AS100
// followed by one big positive hour whose alarms funnel through the given
// peak hop addresses (round-robin), returning the aggregator and the peak
// bin. This is the lying-router shape: base activity plus a forged surge.
func surgeSchedule(t *testing.T, cfg Config, peakHops []string) (*Aggregator, time.Time) {
	t.Helper()
	a := NewAggregator(cfg, testTable(t))
	for h := 0; h < 24*7; h++ {
		a.AddForwardingAlarm(fwdAlarm(t0.Add(time.Duration(h)*time.Hour), "10.1.0.9", 0.01))
	}
	peak := t0.Add(24 * 7 * time.Hour)
	for i := 0; i < 100; i++ {
		a.AddForwardingAlarm(fwdAlarm(peak, peakHops[i%len(peakHops)], 0.5))
	}
	return a, peak
}

func findEvent(evs []Event, asn int, typ Type, bin time.Time) *Event {
	for i := range evs {
		if int(evs[i].ASN) == asn && evs[i].Type == typ && evs[i].Bin.Equal(bin) {
			return &evs[i]
		}
	}
	return nil
}

// TestCorroborationDemotesSingleSourceSurge is the artifact signature the
// pass exists for: a forged forwarding surge funneled through one stale
// interface address crosses the magnitude threshold but dies at K=2, while
// the identical surge spread over two distinct next hops survives.
func TestCorroborationDemotesSingleSourceSurge(t *testing.T) {
	base := Config{Threshold: 5}
	corr := Config{Threshold: 5, Corroborate: 2}
	peakHops := map[string][]string{
		"single-source": {"10.1.0.7"},
		"two-source":    {"10.1.0.7", "10.1.0.8"},
	}

	a, peak := surgeSchedule(t, base, peakHops["single-source"])
	if ev := findEvent(a.Events(t0, peak.Add(time.Hour)), 100, ForwardingAnomaly, peak); ev == nil {
		t.Fatal("baseline config missed the surge event; test is vacuous")
	}

	a, peak = surgeSchedule(t, corr, peakHops["single-source"])
	if ev := findEvent(a.Events(t0, peak.Add(time.Hour)), 100, ForwardingAnomaly, peak); ev != nil {
		t.Errorf("single-source surge survived K=2 corroboration: %+v", *ev)
	}

	a, peak = surgeSchedule(t, corr, peakHops["two-source"])
	if ev := findEvent(a.Events(t0, peak.Add(time.Hour)), 100, ForwardingAnomaly, peak); ev == nil {
		t.Error("two-source surge was wrongly demoted at K=2")
	}
}

// TestCorroborationVantageRule: a delay alarm that already aggregates K
// distinct probe ASes is cross-traceroute corroboration in a single alarm —
// one link suffices. The same alarm seen from one probe AS is not.
func TestCorroborationVantageRule(t *testing.T) {
	run := func(ases int) []Event {
		a := NewAggregator(Config{Threshold: 10, Corroborate: 3}, testTable(t))
		for h := 0; h < 24*7; h++ {
			al := delayAlarm(t0.Add(time.Duration(h)*time.Hour), "10.1.0.1", "10.1.0.2", 0.5)
			al.ASes = ases
			a.AddDelayAlarm(al)
		}
		peak := t0.Add(24 * 7 * time.Hour)
		for i := 0; i < 30; i++ {
			al := delayAlarm(peak, "10.1.0.1", "10.1.0.2", 8)
			al.ASes = ases
			a.AddDelayAlarm(al)
		}
		return a.Events(t0, peak.Add(2*time.Hour))
	}
	peak := t0.Add(24 * 7 * time.Hour)
	if ev := findEvent(run(3), 100, DelayChange, peak); ev == nil {
		t.Error("delay event with 3-AS vantage demoted at K=3 (vantage rule broken)")
	}
	if ev := findEvent(run(1), 100, DelayChange, peak); ev != nil {
		t.Errorf("single-link, single-vantage delay event survived K=3: %+v", *ev)
	}
}

// TestCorroborationDipLedger: a forwarding dip has no alarms in its own bin
// by nature, so it corroborates against the history ledger — the series must
// have been built from K distinct interfaces by the dip bin. A series fed by
// one interface can never produce a believable dip; negative-responsibility
// history still counts toward the ledger (but never toward surges).
func TestCorroborationDipLedger(t *testing.T) {
	run := func(hops []string) []Event {
		a := NewAggregator(Config{Threshold: 5, Corroborate: 2}, testTable(t))
		for h := 0; h < 24*7; h++ {
			// Negative history: routinely devalued hops, alternating sources.
			a.AddForwardingAlarm(fwdAlarm(t0.Add(time.Duration(h)*time.Hour), hops[h%len(hops)], -0.01))
		}
		peak := t0.Add(24 * 7 * time.Hour)
		for i := 0; i < 100; i++ {
			a.AddForwardingAlarm(fwdAlarm(peak, hops[i%len(hops)], -0.5))
		}
		return a.Events(t0, peak.Add(time.Hour))
	}
	peak := t0.Add(24 * 7 * time.Hour)
	if ev := findEvent(run([]string{"10.1.0.8", "10.1.0.9"}), 100, ForwardingAnomaly, peak); ev == nil {
		t.Error("two-interface dip demoted at K=2 (ledger should corroborate it)")
	}
	if ev := findEvent(run([]string{"10.1.0.9"}), 100, ForwardingAnomaly, peak); ev != nil {
		t.Errorf("single-interface dip survived K=2: %+v", *ev)
	}
	// Negative history must not leak into surge corroboration: after a
	// two-interface negative week, a single-source positive surge still dies.
	a := NewAggregator(Config{Threshold: 5, Corroborate: 2}, testTable(t))
	for h := 0; h < 24*7; h++ {
		a.AddForwardingAlarm(fwdAlarm(t0.Add(time.Duration(h)*time.Hour), []string{"10.1.0.8", "10.1.0.9"}[h%2], -0.01))
	}
	for i := 0; i < 100; i++ {
		a.AddForwardingAlarm(fwdAlarm(peak, "10.1.0.7", 0.5))
	}
	if ev := findEvent(a.Events(t0, peak.Add(time.Hour)), 100, ForwardingAnomaly, peak); ev != nil {
		t.Errorf("single-source surge corroborated by negative history: %+v", *ev)
	}
}

// TestCorroborationIncrementalMatchesRecompute: with corroboration on, the
// closed region and the from-scratch recomputeEvents oracle must agree
// event for event — the predicate is shared and the dip ledger is
// order-insensitive for chronological feeds.
func TestCorroborationIncrementalMatchesRecompute(t *testing.T) {
	cfg := Config{Window: 12 * time.Hour, Threshold: 3, Corroborate: 2}
	schedule := func(a *Aggregator, inc bool) []Event {
		var deltas []Event
		hops := []string{"10.1.0.8", "10.1.0.9"}
		for h := 0; h <= 16; h++ {
			bin := t0.Add(time.Duration(h) * time.Hour)
			a.ObserveBin(bin)
			switch h {
			case 10: // two-source surge: must survive
				for i := 0; i < 30; i++ {
					a.AddForwardingAlarm(fwdAlarm(bin, hops[i%2], 0.4))
				}
			case 13: // single-source surge: must be demoted
				for i := 0; i < 30; i++ {
					a.AddForwardingAlarm(fwdAlarm(bin, "10.1.0.7", 0.4))
				}
			case 15: // dip, corroborated by the two-interface history
				for i := 0; i < 30; i++ {
					a.AddForwardingAlarm(fwdAlarm(bin, hops[i%2], -0.4))
				}
			default:
				a.AddForwardingAlarm(fwdAlarm(bin, hops[h%2], 0.02))
				a.AddDelayAlarm(delayAlarm(bin, "10.1.0.1", "10.2.0.1", 0.5))
			}
			if inc {
				deltas = append(deltas, a.CloseBins(bin.Add(time.Hour), nil)...)
			}
		}
		return deltas
	}
	incAgg := NewAggregator(cfg, testTable(t))
	deltas := schedule(incAgg, true)
	refAgg := NewAggregator(cfg, testTable(t))
	schedule(refAgg, false)

	from, to := t0, t0.Add(17*time.Hour)
	want := refAgg.recomputeEvents(from, to)
	if len(want) == 0 {
		t.Fatal("schedule produced no events under corroboration; test is vacuous")
	}
	assertEventsEqual(t, "un-advanced vs recompute", refAgg.Events(from, to), want)
	assertEventsEqual(t, "incremental vs recompute", incAgg.Events(from, to), want)
	assertEventsEqual(t, "deltas vs recompute", deltas, want)
	// The demoted single-source bin must appear in neither list.
	if ev := findEvent(want, 100, ForwardingAnomaly, t0.Add(13*time.Hour)); ev != nil {
		t.Errorf("single-source surge present in corroborated events: %+v", *ev)
	}
}
