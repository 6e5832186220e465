package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"pinpoint/internal/events"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

// runWithBinHook runs the miniature attack platform for a short window and
// records every OnBinClose firing, asserting at hook time that the alarm
// record of the closed bin is complete (no alarm of a later bin dispatched
// yet — the snapshot-publication invariant).
func runWithBinHook(t *testing.T, workers int, hours int) (bins []time.Time, alarmsAtClose map[time.Time]int, a *Analyzer) {
	t.Helper()
	p, _, _, _ := buildAttack(t)
	cfg := Config{RetainAlarms: true, Workers: workers}
	a = New(cfg, p.ProbeASN, p.Net().Prefixes())
	defer a.Close()
	alarmsAtClose = make(map[time.Time]int)
	a.OnBinClose = func(bin time.Time, _ []events.Event, _ *events.CloseDelta) {
		bins = append(bins, bin)
		alarmsAtClose[bin] = len(a.DelayAlarms()) + len(a.ForwardingAlarms())
		for _, al := range a.DelayAlarms() {
			if al.Bin.After(bin) {
				t.Errorf("OnBinClose(%v) ran with a dispatched alarm from later bin %v", bin, al.Bin)
			}
		}
	}
	end := start.Add(time.Duration(hours) * time.Hour)
	if err := a.RunPlatform(context.Background(), p, start, end); err != nil {
		t.Fatal(err)
	}
	return bins, alarmsAtClose, a
}

func TestOnBinCloseFiresPerBinInOrder(t *testing.T) {
	bins, _, a := runWithBinHook(t, 1, 6)
	if len(bins) == 0 {
		t.Fatal("OnBinClose never fired")
	}
	for i := 1; i < len(bins); i++ {
		if !bins[i].After(bins[i-1]) {
			t.Fatalf("bins not strictly increasing: %v", bins)
		}
	}
	// The final bin closes at Flush, so every observed bin closes exactly
	// once: first result bin through last result bin.
	want := 6
	if len(bins) != want {
		t.Errorf("%d bin closes, want %d (hourly bins over 6h): %v", len(bins), want, bins)
	}
	if got := timeseries.Bin(start, time.Hour); !bins[0].Equal(got) {
		t.Errorf("first closed bin %v, want %v", bins[0], got)
	}
	if a.Results() == 0 {
		t.Error("no results ingested")
	}
	// Flush is idempotent: a second Flush must not re-fire the hook.
	n := len(bins)
	a.Flush()
	if len(bins) != n {
		t.Errorf("idempotent Flush re-fired OnBinClose: %d → %d", n, len(bins))
	}
}

func TestOnBinCloseShardedMatchesSequential(t *testing.T) {
	seqBins, seqAlarms, _ := runWithBinHook(t, 1, 6)
	engBins, engAlarms, _ := runWithBinHook(t, 3, 6)
	if len(seqBins) != len(engBins) {
		t.Fatalf("sequential closed %d bins, sharded %d", len(seqBins), len(engBins))
	}
	for i := range seqBins {
		if !seqBins[i].Equal(engBins[i]) {
			t.Errorf("close %d: sequential %v, sharded %v", i, seqBins[i], engBins[i])
		}
	}
	for bin, n := range seqAlarms {
		if engAlarms[bin] != n {
			t.Errorf("bin %v: %d alarms dispatched at close sequentially, %d sharded", bin, n, engAlarms[bin])
		}
	}
}

// TestOnBinCloseDrivesIncrementalAggregator pins the contract the serving
// layer depends on: the analyzer closes its aggregator at every bin close,
// and what that built answers every query exactly like a bare aggregator fed
// the run's alarms and closed once at the end — over a range reaching one
// bin before the span start and three past the closed region — while the
// events handed to OnBinClose concatenate to the closed region's list.
func TestOnBinCloseDrivesIncrementalAggregator(t *testing.T) {
	p, _, evStart, evEnd := buildAttack(t)
	cfg := Config{RetainAlarms: true}
	cfg.Events.Window = 4 * time.Hour
	cfg.Events.Threshold = 3

	a := New(cfg, p.ProbeASN, p.Net().Prefixes())
	defer a.Close()
	var firstBin time.Time
	var hooked []events.Event
	a.OnBinClose = func(bin time.Time, evs []events.Event, d *events.CloseDelta) {
		if firstBin.IsZero() {
			firstBin = d.FirstBin
		}
		hooked = append(hooked, evs...)
	}
	from, to := evStart.Add(-12*time.Hour), evEnd.Add(4*time.Hour)
	if err := a.RunPlatform(context.Background(), p, from, to); err != nil {
		t.Fatal(err)
	}
	agg := a.Aggregator()
	through := agg.Through()
	if len(hooked) == 0 || through.IsZero() {
		t.Fatalf("%d events through %v; test is vacuous", len(hooked), through)
	}
	// The close does not depend on anyone listening.
	p2, _, _, _ := buildAttack(t)
	plain := New(cfg, p2.ProbeASN, p2.Net().Prefixes())
	defer plain.Close()
	if err := plain.RunPlatform(context.Background(), p2, from, to); err != nil {
		t.Fatal(err)
	}
	if got := plain.Aggregator().Through(); !got.Equal(through) {
		t.Errorf("without OnBinClose the region ends %v, want %v", got, through)
	}

	ref := events.NewAggregator(agg.Config(), p.Net().Prefixes())
	ref.ObserveBin(firstBin)
	for _, al := range a.DelayAlarms() {
		ref.AddDelayAlarm(al)
	}
	for _, al := range a.ForwardingAlarms() {
		ref.AddForwardingAlarm(al)
	}
	ref.CloseBins(through, nil)

	from, to = firstBin.Add(-time.Hour), through.Add(3*time.Hour)
	if got, want := agg.Events(from, to), ref.Events(from, to); !reflect.DeepEqual(got, want) {
		t.Errorf("Events differ\ngot  %v\nwant %v", got, want)
	}
	if got := agg.Events(firstBin, through); !reflect.DeepEqual(hooked, got) {
		t.Errorf("OnBinClose events differ from the closed region's\nhooked %v\nEvents %v", hooked, got)
	}
	for _, asn := range ref.ASes() {
		for name, mag := range map[string]func(*events.Aggregator) []timeseries.Point{
			"delay": func(g *events.Aggregator) []timeseries.Point { return g.DelayMagnitude(asn, from, to) },
			"fwd":   func(g *events.Aggregator) []timeseries.Point { return g.ForwardingMagnitude(asn, from, to) },
		} {
			got, want := mag(agg), mag(ref)
			same := len(got) == len(want)
			for i := 0; same && i < len(want); i++ {
				// Bins before the span start have empty windows: NaN in both.
				same = got[i].T.Equal(want[i].T) && math.Float64bits(got[i].V) == math.Float64bits(want[i].V)
			}
			if !same {
				t.Errorf("%s %s magnitudes differ\ngot  %v\nwant %v", asn, name, got, want)
			}
		}
	}
}

// TestLateResultsFoldIntoOpenBin pins what the per-result open-bin range
// check must preserve: a result stamped before the open bin is not dropped
// and closes nothing — it is ingested into the open bin exactly as if it had
// been stamped inside it, at every per-result site (aggregator span, the
// engine's clock, both detectors), one worker or several. The per-bin
// result count the segment store records (ResultsClosed at each close) is
// the in-order stream's too.
func TestLateResultsFoldIntoOpenBin(t *testing.T) {
	p, _, evStart, _ := buildAttack(t)
	rs, err := p.Collect(evStart.Add(-6*time.Hour), evStart.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// A result that opens its bin stays put: moved back, it would fold into
	// the bin before, and that bin's close would come one result later and
	// rightly count it there.
	opens := func(i int) bool {
		return i == 0 || timeseries.Bin(rs[i].Time, time.Hour).After(timeseries.Bin(rs[i-1].Time, time.Hour))
	}
	late := append([]trace.Result(nil), rs...)
	moved := 0
	for i := range late {
		if i%5 == 0 && !opens(i) && late[i].Time.Sub(rs[0].Time) > 2*time.Hour {
			late[i].Time = late[i].Time.Add(-90 * time.Minute) // one or two bins back
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("fixture moved no result")
	}
	for _, workers := range []int{1, 3} {
		run := func(in []trace.Result) (bins []time.Time, closedCounts []int64, a *Analyzer) {
			a = New(Config{RetainAlarms: true, Workers: workers}, p.ProbeASN, p.Net().Prefixes())
			defer a.Close()
			a.OnBinClose = func(bin time.Time, _ []events.Event, _ *events.CloseDelta) {
				bins = append(bins, bin)
				closedCounts = append(closedCounts, a.ResultsClosed())
			}
			a.ObserveBatch(in)
			a.Flush()
			return bins, closedCounts, a
		}
		wantBins, wantCounts, want := run(rs)
		gotBins, gotCounts, got := run(late)
		if len(want.DelayAlarms()) == 0 {
			t.Fatal("fixture raised no delay alarm")
		}
		if !reflect.DeepEqual(gotBins, wantBins) {
			t.Errorf("workers=%d: late results changed the bin closes: %v, want %v", workers, gotBins, wantBins)
		}
		if !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Errorf("workers=%d: late results changed ResultsClosed at the closes: %v, want %v", workers, gotCounts, wantCounts)
		}
		if n := len(wantCounts); n == 0 || wantCounts[n-1] != int64(want.Results()) {
			t.Errorf("workers=%d: ResultsClosed at the last close %v, want every result (%d)", workers, wantCounts, want.Results())
		}
		if !reflect.DeepEqual(got.DelayAlarms(), want.DelayAlarms()) || !reflect.DeepEqual(got.ForwardingAlarms(), want.ForwardingAlarms()) {
			t.Errorf("workers=%d: late results changed the alarms: %d/%d, want %d/%d", workers,
				len(got.DelayAlarms()), len(got.ForwardingAlarms()), len(want.DelayAlarms()), len(want.ForwardingAlarms()))
		}
		if got.Results() != want.Results() {
			t.Errorf("workers=%d: %d results ingested, want %d", workers, got.Results(), want.Results())
		}
	}
}
