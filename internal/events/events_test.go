package events

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"pinpoint/internal/delay"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/stats"
	"pinpoint/internal/trace"
)

var t0 = time.Date(2015, 11, 23, 0, 0, 0, 0, time.UTC)

func testTable(t *testing.T) *ipmap.Table {
	t.Helper()
	var tbl ipmap.Table
	for p, asn := range map[string]ipmap.ASN{"10.1.0.0/16": 100, "10.2.0.0/16": 200, "80.81.192.0/24": 1200} {
		if err := tbl.Add(netip.MustParsePrefix(p), asn); err != nil {
			t.Fatal(err)
		}
	}
	return &tbl
}

func delayAlarm(bin time.Time, near, far string, dev float64) delay.Alarm {
	return delay.Alarm{
		Bin: bin,
		Link: trace.LinkKey{
			Near: netip.MustParseAddr(near),
			Far:  netip.MustParseAddr(far),
		},
		Deviation: dev,
		DiffMS:    dev,
		Observed:  stats.MedianCI{N: 10},
		Reference: stats.MedianCI{N: 1},
	}
}

func TestDelayAlarmMultiASAssignment(t *testing.T) {
	a := NewAggregator(Config{}, testTable(t))
	// Link spanning AS100 and AS200 → both series get the deviation.
	a.AddDelayAlarm(delayAlarm(t0, "10.1.0.1", "10.2.0.1", 5))
	if v, ok := a.DelaySeries(100).Value(t0); !ok || v != 5 {
		t.Errorf("AS100 = %v/%v, want 5", v, ok)
	}
	if v, ok := a.DelaySeries(200).Value(t0); !ok || v != 5 {
		t.Errorf("AS200 = %v/%v, want 5", v, ok)
	}
	// Intra-AS link → only one AS, counted once.
	a.AddDelayAlarm(delayAlarm(t0, "10.1.0.1", "10.1.0.2", 3))
	if v, _ := a.DelaySeries(100).Value(t0); v != 8 {
		t.Errorf("AS100 after intra link = %v, want 8", v)
	}
	if v, _ := a.DelaySeries(200).Value(t0); v != 5 {
		t.Errorf("AS200 unchanged = %v, want 5", v)
	}
}

func TestUnmappedAddressesSkipped(t *testing.T) {
	a := NewAggregator(Config{}, testTable(t))
	a.AddDelayAlarm(delayAlarm(t0, "192.0.2.1", "192.0.2.2", 5))
	if len(a.ASes()) != 0 {
		t.Errorf("unmapped alarm created series: %v", a.ASes())
	}
}

func TestForwardingAlarmResponsibilityRouting(t *testing.T) {
	a := NewAggregator(Config{}, testTable(t))
	al := forwarding.Alarm{
		Bin:    t0,
		Router: netip.MustParseAddr("10.1.0.1"),
		Dst:    netip.MustParseAddr("198.51.100.1"),
		Rho:    -0.6,
		Hops: []forwarding.HopScore{
			{Hop: netip.MustParseAddr("10.1.0.9"), Responsibility: -0.3},
			{Hop: netip.MustParseAddr("10.2.0.9"), Responsibility: 0.25},
			{Hop: forwarding.Unresponsive, Responsibility: 0.05},
		},
	}
	a.AddForwardingAlarm(al)
	if v, _ := a.fwdSeries[100].Value(t0); v != -0.3 {
		t.Errorf("AS100 fwd = %v, want -0.3", v)
	}
	if v, _ := a.fwdSeries[200].Value(t0); v != 0.25 {
		t.Errorf("AS200 fwd = %v, want 0.25", v)
	}
}

func TestIntraASReroutingCancels(t *testing.T) {
	// Both hops in AS100 with opposite responsibilities → net ≈ 0, the
	// paper's intra-AS mitigation.
	a := NewAggregator(Config{}, testTable(t))
	al := forwarding.Alarm{
		Bin:    t0,
		Router: netip.MustParseAddr("10.1.0.1"),
		Hops: []forwarding.HopScore{
			{Hop: netip.MustParseAddr("10.1.0.8"), Responsibility: -0.4},
			{Hop: netip.MustParseAddr("10.1.0.9"), Responsibility: 0.4},
		},
	}
	a.AddForwardingAlarm(al)
	if v, _ := a.fwdSeries[100].Value(t0); v != 0 {
		t.Errorf("intra-AS reroute net = %v, want 0", v)
	}
}

func TestEventsDetectPeaks(t *testing.T) {
	a := NewAggregator(Config{Threshold: 10}, testTable(t))
	a.ObserveBin(t0)
	// A quiet week of small delay deviations for AS100.
	for h := 0; h < 24*7; h++ {
		a.AddDelayAlarm(delayAlarm(t0.Add(time.Duration(h)*time.Hour), "10.1.0.1", "10.1.0.2", 0.5))
	}
	// Then one huge hour.
	peak := t0.Add(24 * 7 * time.Hour)
	for i := 0; i < 30; i++ {
		a.AddDelayAlarm(delayAlarm(peak, "10.1.0.1", "10.1.0.2", 8))
	}
	a.CloseBins(peak.Add(2*time.Hour), nil)
	evs := a.Events(t0, peak.Add(2*time.Hour))
	if len(evs) == 0 {
		t.Fatal("no events detected")
	}
	found := false
	for _, e := range evs {
		if e.ASN == 100 && e.Type == DelayChange && e.Bin.Equal(peak) {
			found = true
			if e.Magnitude < 10 {
				t.Errorf("magnitude = %v", e.Magnitude)
			}
		}
	}
	if !found {
		t.Errorf("peak event missing: %v", evs)
	}
}

func TestNegativeForwardingEvent(t *testing.T) {
	// The AMS-IX signature: strongly negative forwarding magnitude.
	a := NewAggregator(Config{Threshold: 5}, testTable(t))
	a.ObserveBin(t0)
	lan := "80.81.192.5"
	for h := 0; h < 24*7; h++ {
		al := forwarding.Alarm{
			Bin:  t0.Add(time.Duration(h) * time.Hour),
			Hops: []forwarding.HopScore{{Hop: netip.MustParseAddr(lan), Responsibility: -0.01}},
		}
		a.AddForwardingAlarm(al)
	}
	peak := t0.Add(24 * 7 * time.Hour)
	for i := 0; i < 100; i++ {
		a.AddForwardingAlarm(forwarding.Alarm{
			Bin:  peak,
			Hops: []forwarding.HopScore{{Hop: netip.MustParseAddr(lan), Responsibility: -0.5}},
		})
	}
	a.CloseBins(peak.Add(time.Hour), nil)
	evs := a.Events(t0, peak.Add(time.Hour))
	found := false
	for _, e := range evs {
		if e.ASN == 1200 && e.Type == ForwardingAnomaly && e.Magnitude < -5 {
			found = true
		}
	}
	if !found {
		t.Errorf("negative forwarding event missing: %v", evs)
	}
}

func TestEventsSortedAndString(t *testing.T) {
	a := NewAggregator(Config{Threshold: 1}, testTable(t))
	a.ObserveBin(t0)
	for h := 0; h < 24*7; h++ {
		a.AddDelayAlarm(delayAlarm(t0.Add(time.Duration(h)*time.Hour), "10.1.0.1", "10.2.0.2", 0.1))
	}
	peak := t0.Add(24 * 7 * time.Hour)
	for i := 0; i < 50; i++ {
		a.AddDelayAlarm(delayAlarm(peak, "10.1.0.1", "10.2.0.2", 5))
	}
	a.CloseBins(peak.Add(time.Hour), nil)
	evs := a.Events(t0, peak.Add(time.Hour))
	if len(evs) == 0 {
		t.Fatal("no events detected")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Bin.Before(evs[i-1].Bin) {
			t.Fatal("events not sorted")
		}
	}
	if len(evs) > 0 && !strings.Contains(evs[0].String(), "AS") {
		t.Errorf("String() = %q", evs[0].String())
	}
}

func TestAlarmGraphComponents(t *testing.T) {
	root := netip.MustParseAddr("193.0.14.129")
	alarms := []delay.Alarm{
		delayAlarm(t0, "193.0.14.129", "10.1.0.1", 10),
		delayAlarm(t0, "10.1.0.1", "10.1.0.2", 7),
		delayAlarm(t0, "10.9.9.1", "10.9.9.2", 3), // disconnected island
	}
	fwd := []forwarding.Alarm{{
		Bin:    t0,
		Router: netip.MustParseAddr("10.1.0.2"),
		Hops:   []forwarding.HopScore{{Hop: netip.MustParseAddr("10.1.0.1"), Responsibility: -0.2}},
	}}
	g := NewAlarmGraph(alarms, fwd)
	if g.Components() != 2 {
		t.Errorf("components = %d, want 2", g.Components())
	}
	comp := g.Component(root)
	if len(comp) != 2 {
		t.Errorf("root component edges = %d, want 2", len(comp))
	}
	nodes := g.ComponentNodes(root)
	if len(nodes) != 3 {
		t.Errorf("root component nodes = %v", nodes)
	}
	if !g.Flagged(netip.MustParseAddr("10.1.0.1")) {
		t.Error("forwarding-involved node not flagged")
	}
	if g.Flagged(root) {
		t.Error("root wrongly flagged")
	}
	if g.Component(netip.MustParseAddr("203.0.113.1")) != nil {
		t.Error("unknown address should have empty component")
	}
}

func TestWriteDOT(t *testing.T) {
	root := netip.MustParseAddr("193.0.14.129")
	g := NewAlarmGraph([]delay.Alarm{
		delayAlarm(t0, "193.0.14.129", "10.1.0.1", 15),
	}, nil)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, root, map[netip.Addr]bool{root: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph alarms {", `"193.0.14.129"`, `shape="box"`, "+15ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q in:\n%s", want, out)
		}
	}
}
