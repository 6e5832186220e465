package events

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"pinpoint/internal/forwarding"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/timeseries"
)

// feedStep is one bin of a synthetic alarm schedule.
type feedStep struct {
	bin    int // hours after t0
	delay  []float64
	fwd    []float64
	fwdASN string // hop address for fwd responsibilities; default AS100
}

// recomputeEvents is the full scan: every AS's two magnitude series over
// [from, to), thresholded and sorted.
func (a *Aggregator) recomputeEvents(from, to time.Time) []Event {
	var out []Event
	for _, asn := range a.ASes() {
		for _, p := range a.DelayMagnitude(asn, from, to) {
			if p.V >= a.cfg.Threshold {
				out = append(out, Event{ASN: asn, Bin: p.T, Type: DelayChange, Magnitude: p.V})
			}
		}
		for _, p := range a.ForwardingMagnitude(asn, from, to) {
			if p.V >= a.cfg.Threshold || p.V <= -a.cfg.Threshold {
				out = append(out, Event{ASN: asn, Bin: p.T, Type: ForwardingAnomaly, Magnitude: p.V})
			}
		}
	}
	// (Bin, ASN, Type) is a total order here — each AS contributes at most
	// one event per (bin, type) — so the type-specialized unstable sort
	// needs no further tiebreak to be deterministic.
	slices.SortFunc(out, func(a, b Event) int {
		if c := a.Bin.Compare(b.Bin); c != 0 {
			return c
		}
		if a.ASN != b.ASN {
			if a.ASN < b.ASN {
				return -1
			}
			return 1
		}
		return int(a.Type) - int(b.Type)
	})
	return out
}

// runSchedule feeds the schedule chronologically. When inc is true it
// closes each bin after feeding it, exactly as core.Analyzer does; deltas
// accumulate into the returned slice. An aggregator fed with inc false is
// never closed, so recomputeEvents on it is an independent reference: its
// magnitudes come straight from the raw series.
func runSchedule(t *testing.T, steps []feedStep, inc bool) (*Aggregator, []Event) {
	t.Helper()
	a := NewAggregator(Config{Window: 12 * time.Hour, Threshold: 3}, testTable(t))
	var deltas []Event
	for _, st := range steps {
		bin := t0.Add(time.Duration(st.bin) * time.Hour)
		a.ObserveBin(bin)
		for _, v := range st.delay {
			a.AddDelayAlarm(delayAlarm(bin, "10.1.0.1", "10.2.0.1", v))
		}
		for _, v := range st.fwd {
			hop := st.fwdASN
			if hop == "" {
				hop = "10.1.0.9"
			}
			a.AddForwardingAlarm(forwarding.Alarm{
				Bin:    bin,
				Router: netip.MustParseAddr("10.1.0.1"),
				Dst:    netip.MustParseAddr("198.51.100.1"),
				Rho:    -0.6,
				Hops:   []forwarding.HopScore{{Hop: netip.MustParseAddr(hop), Responsibility: v}},
			})
		}
		if inc {
			deltas = append(deltas, a.CloseBins(bin.Add(time.Hour), nil)...)
		}
	}
	return a, deltas
}

// The schedule mixes quiet warm-up, a delay spike, a forwarding spike on an
// AS that first appears mid-run (exercising the zero backfill), gap bins
// with no alarms at all, and a negative forwarding excursion.
var eqSchedule = []feedStep{
	{bin: 0, delay: []float64{1, 0.5}},
	{bin: 1, delay: []float64{0.8}},
	{bin: 2, delay: []float64{1.2}, fwd: []float64{0.1}},
	{bin: 3, delay: []float64{0.9}},
	{bin: 4, delay: []float64{40}},                      // delay event
	{bin: 5, delay: []float64{1}, fwd: []float64{-2.5}}, // negative fwd event
	{bin: 8, delay: []float64{1.1}},                     // gap: bins 6,7 silent
	{bin: 9, fwd: []float64{3}, fwdASN: "80.81.192.7"},  // new AS mid-run
	{bin: 10, delay: []float64{0.7}, fwd: []float64{0.05}},
	{bin: 12, delay: []float64{35, 20}}, // multi-alarm event bin
}

func TestIncrementalEventsMatchRecompute(t *testing.T) {
	incAgg, deltas := runSchedule(t, eqSchedule, true)
	refAgg, _ := runSchedule(t, eqSchedule, false)

	from, to := t0, t0.Add(13*time.Hour)
	want := refAgg.recomputeEvents(from, to)
	if len(want) == 0 {
		t.Fatal("schedule produced no events; test is vacuous")
	}
	assertEventsEqual(t, "un-advanced Events", refAgg.Events(from, to), want)
	got := incAgg.Events(from, to) // covered → served from the region
	if len(got) != len(want) {
		t.Fatalf("incremental Events len=%d, recompute len=%d\ngot %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// The per-close deltas concatenate to exactly the full event list.
	if len(deltas) != len(want) {
		t.Fatalf("delta concatenation len=%d, want %d", len(deltas), len(want))
	}
	for i := range want {
		if deltas[i] != want[i] {
			t.Errorf("delta %d: got %+v, want %+v", i, deltas[i], want[i])
		}
	}
}

func TestIncrementalMagnitudesMatchRecompute(t *testing.T) {
	incAgg, _ := runSchedule(t, eqSchedule, true)
	refAgg, _ := runSchedule(t, eqSchedule, false)

	from, to := t0, t0.Add(13*time.Hour)
	for _, asn := range refAgg.ASes() {
		for name, get := range map[string]func(*Aggregator) []timeseries.Point{
			"delay": func(a *Aggregator) []timeseries.Point { return a.DelayMagnitude(asn, from, to) },
			"fwd":   func(a *Aggregator) []timeseries.Point { return a.ForwardingMagnitude(asn, from, to) },
		} {
			want := get(refAgg)
			got := get(incAgg)
			if len(got) != len(want) {
				t.Fatalf("AS%d %s: len=%d, want %d", asn, name, len(got), len(want))
			}
			for i := range want {
				if !got[i].T.Equal(want[i].T) || got[i].V != want[i].V {
					t.Errorf("AS%d %s point %d: got %v, want %v", asn, name, i, got[i], want[i])
				}
			}
		}
	}
}

func TestIncrementalSubrangeQueries(t *testing.T) {
	incAgg, _ := runSchedule(t, eqSchedule, true)
	refAgg, _ := runSchedule(t, eqSchedule, false)
	// Sub-windows of the covered region must match the recompute too, as
	// must windows reaching before the span start (no events there) or past
	// the region (those bins are evaluated, not cached), and a reversed
	// window (from after to: bin 4 holds the first event) is empty.
	for _, w := range [][2]int{{0, 13}, {3, 6}, {3, 4}, {4, 5}, {5, 5}, {9, 12}, {9, 13}, {5, 4}, {-2, 3}, {0, 20}, {-2, 20}} {
		from, to := t0.Add(time.Duration(w[0])*time.Hour), t0.Add(time.Duration(w[1])*time.Hour)
		label := fmt.Sprintf("window %v", w)
		want := refAgg.recomputeEvents(from, to)
		assertEventsEqual(t, label, incAgg.Events(from, to), want)
		assertEventsEqual(t, label+" un-advanced", refAgg.Events(from, to), want)
	}
}

// An aggregator never told its span start windows each AS from its own
// first alarm: the bins before it are not phantom zeros, so a first alarm
// scores 0 against itself and raises no event.
func TestBareAggregatorWindowsFromFirstAlarm(t *testing.T) {
	a := NewAggregator(Config{Window: 12 * time.Hour, Threshold: 3}, testTable(t))
	a.AddDelayAlarm(delayAlarm(t0.Add(3*time.Hour), "10.1.0.1", "10.2.0.1", 40))
	a.AddDelayAlarm(delayAlarm(t0.Add(4*time.Hour), "10.1.0.1", "10.2.0.1", 1))
	from, to := t0, t0.Add(8*time.Hour)
	for _, asn := range a.ASes() {
		got := a.DelayMagnitude(asn, from, to)
		want := a.delaySeries[asn].Magnitude(from, to, a.cfg.Window)
		if len(got) != len(want) {
			t.Fatalf("AS%d: %d points, want %d", asn, len(got), len(want))
		}
		for i := range want {
			if !got[i].T.Equal(want[i].T) || !sameMag(got[i].V, want[i].V) {
				t.Errorf("AS%d point %d: got %v, want %v", asn, i, got[i], want[i])
			}
		}
		if v := got[3].V; v != 0 {
			t.Errorf("AS%d first alarm magnitude %v, want 0", asn, v)
		}
	}
	if evs := a.Events(from, to); len(evs) != 0 {
		t.Errorf("events %v, want none", evs)
	}
}

func sameMag(x, y float64) bool { return x == y || x != x && y != y }

func assertEventsEqual(t *testing.T, label string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d\ngot %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s event %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestCloseBinsAllocationFree pins the close path at zero allocations per
// AS per bin: each AS's Eq 10 window is a copy of its raw column into the
// aggregator's scratch, selected in place, and the AS list is kept sorted
// as series appear. Forty ASes with delay and forwarding series are warmed
// through 130 bins, so their region slices have room for the measured
// closes; a nil delta then makes every close allocation-free.
func TestCloseBinsAllocationFree(t *testing.T) {
	var tbl ipmap.Table
	const nASes = 40
	for i := 0; i < nASes; i++ {
		if err := tbl.Add(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16), ipmap.ASN(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAggregator(Config{}, &tbl)
	for h := 0; h < 10; h++ {
		bin := t0.Add(time.Duration(h) * time.Hour)
		a.ObserveBin(bin)
		for i := 0; i < nASes; i++ {
			near, far := fmt.Sprintf("10.%d.0.1", i), fmt.Sprintf("10.%d.0.2", i)
			a.AddDelayAlarm(delayAlarm(bin, near, far, float64(1+(h*i)%7)))
			a.AddForwardingAlarm(forwarding.Alarm{
				Bin:  bin,
				Hops: []forwarding.HopScore{{Hop: netip.MustParseAddr(far), Responsibility: float64(h%3) - 1}},
			})
		}
	}
	next := t0.Add(130 * time.Hour)
	a.CloseBins(next, nil)
	if n := len(a.inc.mag[DelayChange]) + len(a.inc.mag[ForwardingAnomaly]); n != 2*nASes {
		t.Fatalf("%d magnitude series, want %d", n, 2*nASes)
	}
	allocs := testing.AllocsPerRun(100, func() {
		next = next.Add(time.Hour)
		a.CloseBins(next, nil)
	})
	if allocs != 0 {
		t.Errorf("closing one bin of %d ASes allocates %v times, want 0", nASes, allocs)
	}
}
