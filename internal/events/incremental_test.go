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

// recomputeMagnitudes is the oracle of one series: Eq 10 evaluated on its
// own for every bin of [from, to) from the span start on, straight from the
// raw series. It never reads the closed region.
func (a *Aggregator) recomputeMagnitudes(s *timeseries.Series, from, to time.Time) []timeseries.Point {
	if s == nil {
		return nil
	}
	if from.Before(a.firstBin) {
		from = a.firstBin
	}
	var out []timeseries.Point
	var sc timeseries.Scratch
	for t := from; t.Before(to); t = t.Add(a.cfg.BinSize) {
		out = append(out, timeseries.Point{T: t, V: s.MagnitudeAt(a.firstBin, t, a.cfg.Window, &sc)})
	}
	return out
}

// recomputeEvents is the full scan: every AS's two recomputed magnitude
// series over [from, to), thresholded and sorted.
func (a *Aggregator) recomputeEvents(from, to time.Time) []Event {
	var out []Event
	for _, asn := range a.ASes() {
		for _, p := range a.recomputeMagnitudes(a.delaySeries[asn], from, to) {
			if p.V >= a.cfg.Threshold {
				out = append(out, Event{ASN: asn, Bin: p.T, Type: DelayChange, Magnitude: p.V})
			}
		}
		for _, p := range a.recomputeMagnitudes(a.fwdSeries[asn], from, to) {
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

// runSchedule feeds the schedule chronologically and closes each bin after
// feeding it, exactly as core.Analyzer does; the events of the closes
// accumulate into the returned slice.
func runSchedule(t *testing.T, steps []feedStep) (*Aggregator, []Event) {
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
		deltas = append(deltas, a.CloseBins(bin.Add(time.Hour), nil)...)
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
	a, deltas := runSchedule(t, eqSchedule)

	from, to := t0, t0.Add(13*time.Hour)
	want := a.recomputeEvents(from, to)
	if len(want) == 0 {
		t.Fatal("schedule produced no events; test is vacuous")
	}
	assertEventsEqual(t, "Events", a.Events(from, to), want)
	// The per-close deltas concatenate to exactly the full event list.
	assertEventsEqual(t, "delta concatenation", deltas, want)
}

func TestIncrementalMagnitudesMatchRecompute(t *testing.T) {
	a, _ := runSchedule(t, eqSchedule)

	from, to := t0, t0.Add(13*time.Hour)
	for _, asn := range a.ASes() {
		assertPointsEqual(t, fmt.Sprintf("AS%d delay", asn), a.DelayMagnitude(asn, from, to), a.recomputeMagnitudes(a.delaySeries[asn], from, to))
		assertPointsEqual(t, fmt.Sprintf("AS%d fwd", asn), a.ForwardingMagnitude(asn, from, to), a.recomputeMagnitudes(a.fwdSeries[asn], from, to))
	}
}

func TestIncrementalSubrangeQueries(t *testing.T) {
	a, _ := runSchedule(t, eqSchedule)
	through := a.Through()
	// Sub-windows of the closed region must match the recompute too, as
	// must windows reaching before the span start (no bins there) or past
	// the region (only its closed bins are answered), and a reversed window
	// (from after to: bin 4 holds the first event) is empty.
	for _, w := range [][2]int{{0, 13}, {3, 6}, {3, 4}, {4, 5}, {5, 5}, {9, 12}, {9, 13}, {5, 4}, {-2, 3}, {0, 20}, {-2, 20}} {
		from, to := t0.Add(time.Duration(w[0])*time.Hour), t0.Add(time.Duration(w[1])*time.Hour)
		label := fmt.Sprintf("window %v", w)
		clipped := to
		if clipped.After(through) {
			clipped = through
		}
		assertEventsEqual(t, label, a.Events(from, to), a.recomputeEvents(from, clipped))
		for _, asn := range a.ASes() {
			assertPointsEqual(t, fmt.Sprintf("%s AS%d delay", label, asn), a.DelayMagnitude(asn, from, to), a.recomputeMagnitudes(a.delaySeries[asn], from, clipped))
			assertPointsEqual(t, fmt.Sprintf("%s AS%d fwd", label, asn), a.ForwardingMagnitude(asn, from, to), a.recomputeMagnitudes(a.fwdSeries[asn], from, clipped))
		}
	}
}

// TestQueriesAnswerOnlyClosedBins pins the query contract: a bin is
// answered once it is closed, and never before. An alarm in the bin after
// the region changes no answer until that bin closes; then it is answered,
// and its event is there.
func TestQueriesAnswerOnlyClosedBins(t *testing.T) {
	a, _ := runSchedule(t, eqSchedule)
	through := a.Through()
	evs, mag := a.Events(t0, through), a.DelayMagnitude(100, t0, through)

	a.AddDelayAlarm(delayAlarm(through, "10.1.0.1", "10.2.0.1", 500))
	past := through.Add(8 * time.Hour)
	assertEventsEqual(t, "past the region", a.Events(t0, past), evs)
	assertPointsEqual(t, "AS100 delay past the region", a.DelayMagnitude(100, t0, past), mag)
	// Far-off times clamp to the region; they never wrap a bin index.
	assertEventsEqual(t, "widest range", a.Events(time.Time{}, time.Unix(1<<40, 0)), evs)

	a.CloseBins(through.Add(time.Hour), nil)
	got := a.Events(t0, past)
	assertEventsEqual(t, "after the close", got, a.recomputeEvents(t0, a.Through()))
	assertPointsEqual(t, "AS100 delay after the close", a.DelayMagnitude(100, t0, past), a.recomputeMagnitudes(a.delaySeries[100], t0, a.Through()))
	if len(got) == len(evs) || !got[len(got)-1].Bin.Equal(through) || got[len(got)-1].Type != DelayChange {
		t.Fatalf("closing bin %v raised no delay event: %v", through, got)
	}
}

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

func assertPointsEqual(t *testing.T, label string, got, want []timeseries.Point) {
	t.Helper()
	if !pointsEqual(got, want) {
		t.Fatalf("%s: magnitudes differ\ngot  %v\nwant %v", label, got, want)
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
