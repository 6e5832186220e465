package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ingest"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

// shiftRun is what one replay of the time-shift relation reports, with
// every time moved back by the run's shift; durations are zeroed.
type shiftRun struct {
	delay      []delay.Alarm
	fwd        []forwarding.Alarm
	events     []events.Event
	ases       []ipmap.ASN
	delayMag   map[ipmap.ASN][]timeseries.Point
	fwdMag     map[ipmap.ASN][]timeseries.Point
	st         ingest.Stats
	delayClose delay.CloseStats
	fwdClose   forwarding.CloseStats
	results    int
	closed     int
	links      int
	routers    int
}

// TestTimeShiftRelation is the time-shift invariance: the paper's methods
// read bins relative to each other, never the calendar, so moving every
// timestamp of a dump k whole bins later moves every output k bins later
// and changes nothing else. A quick case is replayed through RunFiles
// twice, as written and shifted so that its first event window starts at
// 23:00 on Dec 31, and every alarm, magnitude point and event of the
// shifted run, moved back, must equal the unshifted run's. ddos raises the
// delay alarms and the events, ixp the forwarding alarms. §4.3's thinning seeds on the
// bin's Unix time, so the relation is exact only where no link-bin is
// thinned; the test asserts that none is.
func TestTimeShiftRelation(t *testing.T) {
	var delayAlarms, fwdAlarms, evs int
	for _, name := range []string{"ddos", "ixp"} {
		t.Run(name, func(t *testing.T) {
			want, got, k := timeShiftRuns(t, name)
			delayAlarms, fwdAlarms, evs = delayAlarms+len(want.delay), fwdAlarms+len(want.fwd), evs+len(want.events)
			for _, d := range []struct {
				what      string
				want, got any
			}{
				{"delay alarms", want.delay, got.delay},
				{"forwarding alarms", want.fwd, got.fwd},
				{"events", want.events, got.events},
				{"ASes", want.ases, got.ases},
				{"delay magnitudes", want.delayMag, got.delayMag},
				{"forwarding magnitudes", want.fwdMag, got.fwdMag},
				{"ingest stats", want.st, got.st},
				{"delay close stats", want.delayClose, got.delayClose},
				{"forwarding close stats", want.fwdClose, got.fwdClose},
				{"counters", [4]int{want.results, want.closed, want.links, want.routers}, [4]int{got.results, got.closed, got.links, got.routers}},
			} {
				if !reflect.DeepEqual(d.want, d.got) {
					t.Errorf("%s differ after shifting back by %d bins:\nwant %s\ngot  %s", d.what, k, clip(d.want), clip(d.got))
				}
			}
		})
	}
	if delayAlarms == 0 || fwdAlarms == 0 || evs == 0 {
		t.Errorf("the cases raised %d delay alarms, %d forwarding alarms and %d events: some output goes unchecked", delayAlarms, fwdAlarms, evs)
	}
}

// clip renders v for a failure message, cut to its first 300 bytes.
func clip(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 300 {
		s = s[:300] + "…"
	}
	return s
}

// timeShiftRuns generates the named quick case once, writes it as a dump
// and as a copy with every timestamp k hourly bins later, and replays both.
// The shifted run's report has every time moved back by k bins.
func timeShiftRuns(t *testing.T, name string) (want, got shiftRun, k int) {
	c, err := NewCase(name, Quick)
	if err != nil {
		t.Fatal(err)
	}
	w0 := c.EventWindows[0][0]
	k = int(time.Date(w0.Year(), 12, 31, 23, 0, 0, 0, time.UTC).Sub(w0) / time.Hour)
	shift := time.Duration(k) * time.Hour
	if w0.Add(shift).Year() == c.EventWindows[0][1].Add(shift).Year() {
		t.Fatalf("shifted window %v does not cross a year boundary", w0.Add(shift))
	}

	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "plain.ndjson"), filepath.Join(dir, "shifted.ndjson")}
	var ws [2]*trace.Writer
	for i, p := range paths {
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ws[i] = trace.NewWriter(f)
	}
	if err := c.Platform.Run(c.Start, c.End, func(r trace.Result) error {
		if err := ws[0].Write(r); err != nil {
			return err
		}
		r.Time = r.Time.Add(shift)
		return ws[1].Write(r)
	}); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	run := func(path string, shift time.Duration) shiftRun {
		a := core.New(core.Config{RetainAlarms: true}, c.Platform.ProbeASN, c.Net.Prefixes())
		defer a.Close()
		st, err := a.RunFiles(context.Background(), []string{path}, ingest.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		back := func(tm time.Time) time.Time { return tm.Add(-shift) }
		out := shiftRun{st: st, results: a.Results(), closed: a.ResultsClosed(), links: a.LinksSeen(), routers: a.RoutersSeen(),
			delayMag: map[ipmap.ASN][]timeseries.Point{}, fwdMag: map[ipmap.ASN][]timeseries.Point{}}
		out.delayClose, out.fwdClose = a.BinCloseStats()
		out.delayClose.Dur, out.fwdClose.Dur = 0, 0
		if out.delayClose.Dropped != 0 {
			t.Fatalf("%d link-bins thinned by §4.3: the relation does not hold for them", out.delayClose.Dropped)
		}
		for _, al := range a.DelayAlarms() {
			al.Bin = back(al.Bin)
			out.delay = append(out.delay, al)
		}
		for _, al := range a.ForwardingAlarms() {
			al.Bin = back(al.Bin)
			out.fwd = append(out.fwd, al)
		}
		agg := a.Aggregator()
		from, to := c.Start.Add(shift), c.End.Add(shift)
		for _, e := range agg.Events(from, to) {
			e.Bin = back(e.Bin)
			out.events = append(out.events, e)
		}
		out.ases = agg.ASes()
		backPoints := func(pts []timeseries.Point) []timeseries.Point {
			for i := range pts {
				pts[i].T = back(pts[i].T)
			}
			return pts
		}
		for _, asn := range out.ases {
			out.delayMag[asn] = backPoints(agg.DelayMagnitude(asn, from, to))
			out.fwdMag[asn] = backPoints(agg.ForwardingMagnitude(asn, from, to))
		}
		return out
	}
	return run(paths[0], 0), run(paths[1], shift), k
}
