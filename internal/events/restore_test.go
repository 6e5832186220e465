package events

import (
	"math"
	"reflect"
	"testing"
	"time"

	"pinpoint/internal/ipmap"
	"pinpoint/internal/timeseries"
)

// binHour is the test bin size; windowBins the magnitude window in bins.
const (
	binHour    = time.Hour
	windowBins = 6
)

func restoreConfig() Config {
	return Config{BinSize: binHour, Window: windowBins * binHour, Threshold: 3}
}

// binAlarms is the deterministic per-bin alarm script: quiet history, a
// burst (the event), then a tail.
func binAlarms(i, n int) []float64 {
	switch {
	case i == n-4:
		return []float64{40, 35} // the burst both ASes should flag
	case i%3 == 0:
		return []float64{1}
	case i%5 == 2:
		return []float64{2, 0.5}
	default:
		return nil
	}
}

// segment is the per-bin state a fake "store" captures: the close delta
// plus the events appended by the close.
type segment struct {
	bin   time.Time
	delta CloseDelta
	evs   []Event
}

// runPipeline drives an aggregator over n bins, returning a segment per
// bin (the same capture the publisher persists).
func runPipeline(t *testing.T, a *Aggregator, start time.Time, from, n int) []segment {
	t.Helper()
	segs := make([]segment, 0, n-from)
	for i := from; i < n; i++ {
		bin := start.Add(time.Duration(i) * binHour)
		a.ObserveBin(bin)
		for j, dev := range binAlarms(i, n) {
			near, far := "10.1.0.1", "10.2.0.1"
			if j%2 == 1 {
				near, far = "10.1.0.2", "10.1.0.3"
			}
			a.AddDelayAlarm(delayAlarm(bin, near, far, dev))
		}
		var d CloseDelta
		evs := a.CloseBins(bin.Add(binHour), &d)
		segs = append(segs, segment{bin: bin, delta: d, evs: append([]Event(nil), evs...)})
	}
	return segs
}

// restoredState assembles RestoredState from the first k segments with
// only the raw window retained — exactly what a boot from segments has.
func restoredState(segs []segment, k int) RestoredState {
	rs := RestoredState{
		DelayMag: make(map[ipmap.ASN][]float64),
		FwdMag:   make(map[ipmap.ASN][]float64),
	}
	rs.FirstBin = segs[0].delta.FirstBin
	rs.ValidThrough = segs[k-1].bin.Add(binHour)
	keep := rs.ValidThrough.Add(-windowBins * binHour)
	for _, s := range segs[:k] {
		rs.Events = append(rs.Events, s.evs...)
		for _, p := range s.delta.DelayMag {
			rs.DelayMag[p.ASN] = append(rs.DelayMag[p.ASN], p.V)
		}
		for _, p := range s.delta.FwdMag {
			rs.FwdMag[p.ASN] = append(rs.FwdMag[p.ASN], p.V)
		}
		for _, p := range s.delta.DelayRaw {
			if !p.T.Before(keep) {
				rs.DelayRaw = append(rs.DelayRaw, p)
			}
		}
		for _, p := range s.delta.FwdRaw {
			if !p.T.Before(keep) {
				rs.FwdRaw = append(rs.FwdRaw, p)
			}
		}
	}
	return rs
}

// TestRestoreMatchesUninterrupted: an aggregator restored at bin k from
// segment-derived state — with history before the retained window living
// ONLY in those segments — and driven over the remaining bins must answer
// every query identically to the uninterrupted aggregator, including
// queries reaching past the region on either side.
func TestRestoreMatchesUninterrupted(t *testing.T) {
	const n = 24
	start := t0
	full := NewAggregator(restoreConfig(), testTable(t))
	segs := runPipeline(t, full, start, 0, n)
	end := start.Add(n * binHour)

	for _, k := range []int{1, n / 2, n - 1} {
		a := NewAggregator(restoreConfig(), testTable(t))
		if err := a.RestoreIncremental(restoredState(segs, k)); err != nil {
			t.Fatalf("k=%d: restore: %v", k, err)
		}
		runPipeline(t, a, start, k, n)

		if want, got := full.Through(), a.Through(); !want.Equal(end) || !got.Equal(want) {
			t.Fatalf("k=%d: region ends %v, uninterrupted %v, want %v", k, got, want, end)
		}

		// Covered queries, and queries ending past the region, which clamp
		// at validThrough: early raw bins live only in segments, so every
		// answer must come from the restored region.
		for _, to := range []time.Time{end, end.Add(3 * binHour)} {
			want := full.Events(start, to)
			got := a.Events(start, to)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("k=%d to=%v: Events differ\nwant %v\n got %v", k, to, want, got)
			}
			for _, asn := range full.ASes() {
				wantPts := full.DelayMagnitude(asn, start.Add(-2*binHour), to)
				gotPts := a.DelayMagnitude(asn, start.Add(-2*binHour), to)
				if !pointsEqual(wantPts, gotPts) {
					t.Fatalf("k=%d to=%v AS%d: magnitudes differ\nwant %v\n got %v", k, to, asn, wantPts, gotPts)
				}
				wantPts = full.ForwardingMagnitude(asn, start.Add(-2*binHour), to)
				gotPts = a.ForwardingMagnitude(asn, start.Add(-2*binHour), to)
				if !pointsEqual(wantPts, gotPts) {
					t.Fatalf("k=%d to=%v AS%d: forwarding magnitudes differ\nwant %v\n got %v", k, to, asn, wantPts, gotPts)
				}
			}
		}
	}
}

// TestRestoreAfterEviction drives the restored aggregator with eviction
// after every close — bounded memory — and requires identical answers.
func TestRestoreAfterEviction(t *testing.T) {
	const n = 24
	start := t0
	full := NewAggregator(restoreConfig(), testTable(t))
	segs := runPipeline(t, full, start, 0, n)
	end := start.Add(n * binHour)

	k := n / 2
	a := NewAggregator(restoreConfig(), testTable(t))
	if err := a.RestoreIncremental(restoredState(segs, k)); err != nil {
		t.Fatal(err)
	}
	evicted := 0
	for i := k; i < n; i++ {
		bin := start.Add(time.Duration(i) * binHour)
		a.ObserveBin(bin)
		for j, dev := range binAlarms(i, n) {
			near, far := "10.1.0.1", "10.2.0.1"
			if j%2 == 1 {
				near, far = "10.1.0.2", "10.1.0.3"
			}
			a.AddDelayAlarm(delayAlarm(bin, near, far, dev))
		}
		a.CloseBins(bin.Add(binHour), nil)
		evicted += a.EvictBefore(bin) // clamped internally to the window
	}
	if got, want := a.Events(start, end), full.Events(start, end); !reflect.DeepEqual(got, want) {
		t.Fatalf("with eviction: Events differ\nwant %v\n got %v", want, got)
	}
	for _, asn := range full.ASes() {
		if !pointsEqual(full.DelayMagnitude(asn, start, end), a.DelayMagnitude(asn, start, end)) {
			t.Fatalf("with eviction: AS%d magnitudes differ", asn)
		}
	}
	// The eviction must actually have dropped something, or this test
	// proves nothing about bounded memory.
	if evicted == 0 {
		t.Fatal("eviction horizon never dropped a bin")
	}
}

// TestSegmentBackedRejectsStaleMutations pins the closed-bins-are-immutable
// contract for every aggregator that was advanced, store-restored or not: a
// late alarm and a backwards span-start move after CloseBins are dropped
// and counted, every query keeps answering like a reference aggregator
// that never saw them, previously published prefixes are untouched, and
// the next in-order close is fine. Before any CloseBins nothing is closed,
// so out-of-order adds are still accepted.
func TestSegmentBackedRejectsStaleMutations(t *testing.T) {
	const n = 12
	ref := NewAggregator(restoreConfig(), testTable(t))
	segs := runPipeline(t, ref, t0, 0, n)
	restored := NewAggregator(restoreConfig(), testTable(t))
	if err := restored.RestoreIncremental(restoredState(segs, n)); err != nil {
		t.Fatal(err)
	}
	live := NewAggregator(restoreConfig(), testTable(t))
	runPipeline(t, live, t0, 0, n)

	from, to := t0.Add(-2*binHour), t0.Add((n+2)*binHour) // straddles both region bounds
	for name, a := range map[string]*Aggregator{"live": live, "restored": restored} {
		closed := t0.Add(n * binHour)
		if !a.Through().Equal(closed) {
			t.Fatalf("%s: region ends %v after %d closes, want %v", name, a.Through(), n, closed)
		}
		published := a.DelayMagnitude(100, t0, closed)

		a.AddDelayAlarm(delayAlarm(t0.Add(2*binHour), "10.1.0.1", "10.2.0.1", 99))
		a.ObserveBin(t0.Add(-5 * binHour))
		if got := a.DroppedStale(); got != 2 {
			t.Fatalf("%s: DroppedStale = %d, want 2", name, got)
		}
		assertEventsEqual(t, name, a.Events(from, to), ref.Events(from, to))
		for _, asn := range ref.ASes() {
			if !pointsEqual(a.DelayMagnitude(asn, from, to), ref.DelayMagnitude(asn, from, to)) {
				t.Fatalf("%s: AS%d magnitudes changed by a rejected mutation", name, asn)
			}
		}
		if !pointsEqual(a.DelayMagnitude(100, t0, closed), published) {
			t.Fatalf("%s: closed magnitude region mutated", name)
		}
		// And the pipeline keeps going: the next in-order bin closes fine.
		next := t0.Add(n * binHour)
		a.ObserveBin(next)
		a.AddDelayAlarm(delayAlarm(next, "10.1.0.1", "10.2.0.1", 1))
		a.CloseBins(next.Add(binHour), nil)
		if thru := a.Through(); !thru.Equal(next.Add(binHour)) {
			t.Fatalf("%s: region ends %v after the next close, want %v", name, thru, next.Add(binHour))
		}
	}

	// Never advanced: any order is accepted, and one close then answers
	// like the in-order feed.
	fwd, rev := NewAggregator(restoreConfig(), testTable(t)), NewAggregator(restoreConfig(), testTable(t))
	for i := 0; i < n; i++ {
		for a, h := range map[*Aggregator]int{fwd: i, rev: n - 1 - i} {
			bin := t0.Add(time.Duration(h) * binHour)
			a.ObserveBin(bin)
			for _, dev := range binAlarms(h, n) {
				a.AddDelayAlarm(delayAlarm(bin, "10.1.0.1", "10.2.0.1", dev))
			}
		}
	}
	if rev.DroppedStale() != 0 {
		t.Fatalf("un-advanced aggregator dropped %d out-of-order mutations", rev.DroppedStale())
	}
	fwd.CloseBins(t0.Add(n*binHour), nil)
	rev.CloseBins(t0.Add(n*binHour), nil)
	want := fwd.Events(from, to)
	if len(want) == 0 {
		t.Fatal("schedule produced no events; test is vacuous")
	}
	assertEventsEqual(t, "out-of-order before any close", rev.Events(from, to), want)
}

// TestRestoreRequiresFreshAggregator pins the restore preconditions.
func TestRestoreRequiresFreshAggregator(t *testing.T) {
	a := NewAggregator(restoreConfig(), testTable(t))
	a.ObserveBin(t0)
	if err := a.RestoreIncremental(RestoredState{FirstBin: t0, ValidThrough: t0}); err == nil {
		t.Fatal("restore on a non-fresh aggregator succeeded")
	}
}

// pointsEqual compares point slices treating NaN == NaN (empty windows
// yield NaN magnitudes) and nil == empty.
func pointsEqual(a, b []timeseries.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].T.Equal(b[i].T) {
			return false
		}
		if a[i].V != b[i].V && !(math.IsNaN(a[i].V) && math.IsNaN(b[i].V)) {
			return false
		}
	}
	return true
}
