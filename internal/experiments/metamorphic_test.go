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

// relationRun is what one replay of a relation reports, with every time and
// ASN mapped back through the run's relabelling; durations and the payload
// byte count are zeroed.
type relationRun struct {
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

// relabel is one metamorphic rewrite of a case dump: every timestamp moves
// shift later, every probe ID p becomes prb(p) and every ASN a, in the
// probes' ASes and in the prefix table, becomes asn(a). asnBack undoes asn
// on the outputs.
type relabel struct {
	shift        time.Duration
	prb          func(int) int
	asn, asnBack func(ipmap.ASN) ipmap.ASN
}

// identity is the relabelling that changes nothing.
var identity = relabel{
	prb:     func(p int) int { return p },
	asn:     func(a ipmap.ASN) ipmap.ASN { return a },
	asnBack: func(a ipmap.ASN) ipmap.ASN { return a },
}

// TestTimeShiftRelation is the time-shift invariance: the paper's methods
// read bins relative to each other, never the calendar, so moving every
// timestamp of a dump k whole bins later moves every output k bins later
// and changes nothing else. The shift puts the case's first event window
// at 23:00 on Dec 31, so the replay crosses a year boundary (the shifted
// timestamps go through the wire scanner). §4.3's thinning seeds on the
// bin's Unix time, so the relation is exact only where no link-bin is
// thinned; relationRuns asserts that none is.
func TestTimeShiftRelation(t *testing.T) {
	checkRelation(t, func(t *testing.T, c *Case) relabel {
		w0 := c.EventWindows[0][0]
		k := time.Date(w0.Year(), 12, 31, 23, 0, 0, 0, time.UTC).Sub(w0) / time.Hour
		rel := identity
		rel.shift = k * time.Hour
		if w0.Add(rel.shift).Year() == c.EventWindows[0][1].Add(rel.shift).Year() {
			t.Fatalf("shifted window %v does not cross a year boundary", w0.Add(rel.shift))
		}
		return rel
	})
}

// TestRenumberRelation is the renumbering invariance: §4.3 and §6 read
// probe IDs and ASNs only through counts and order, never through their
// values, so an order-preserving renaming of both (probe p → 3p+100, AS a →
// 3a+70000, which puts every AS past the 16-bit range the cases use)
// leaves every output equal once the ASNs are renamed back.
func TestRenumberRelation(t *testing.T) {
	checkRelation(t, func(*testing.T, *Case) relabel {
		return relabel{
			prb:     func(p int) int { return 3*p + 100 },
			asn:     func(a ipmap.ASN) ipmap.ASN { return 3*a + 70000 },
			asnBack: func(a ipmap.ASN) ipmap.ASN { return (a - 70000) / 3 },
		}
	})
}

// checkRelation replays the quick ddos and ixp cases as written and as
// relabelled by rel, and requires every alarm, magnitude point, event and
// counter of the relabelled replay, mapped back, to equal the plain
// replay's. ddos raises the delay alarms and the events, ixp the forwarding
// alarms; the test fails if the two together leave one of them unchecked.
func checkRelation(t *testing.T, rel func(*testing.T, *Case) relabel) {
	var delayAlarms, fwdAlarms, evs int
	for _, name := range []string{"ddos", "ixp"} {
		t.Run(name, func(t *testing.T) {
			c, err := NewCase(name, Quick)
			if err != nil {
				t.Fatal(err)
			}
			r := rel(t, c)
			want, got := relationRuns(t, c, r)
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
					t.Errorf("%s differ after mapping back (shift %v):\nwant %s\ngot  %s", d.what, r.shift, clip(d.want), clip(d.got))
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

// relationRuns generates c once, writes it as a dump and as a copy
// relabelled by rel, and replays both through RunFiles, each with the
// probe→AS map and prefix table its dump's names need. The relabelled
// run's report is mapped back through rel.
func relationRuns(t *testing.T, c *Case, rel relabel) (want, got relationRun) {
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "plain.ndjson"), filepath.Join(dir, "relabelled.ndjson")}
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
		r.Time, r.PrbID = r.Time.Add(rel.shift), rel.prb(r.PrbID)
		return ws[1].Write(r)
	}); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	run := func(path string, rel relabel) relationRun {
		probeASN := map[int]ipmap.ASN{}
		for _, p := range c.Platform.Probes() {
			probeASN[rel.prb(p.ID)] = rel.asn(p.ASN)
		}
		var table ipmap.Table
		for _, e := range c.Net.Prefixes().Entries() {
			if err := table.Add(e.Prefix, rel.asn(e.ASN)); err != nil {
				t.Fatal(err)
			}
		}
		a := core.New(core.Config{RetainAlarms: true}, func(id int) (ipmap.ASN, bool) {
			asn, ok := probeASN[id]
			return asn, ok
		}, &table)
		defer a.Close()
		st, err := a.RunFiles(context.Background(), []string{path}, ingest.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		// A relabelled name may print longer, so the payload count is held
		// to the dump's own size rather than to the other run's.
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Bytes != fi.Size()-int64(st.Lines) {
			t.Errorf("%s: %d payload bytes scanned, want the file's %d less %d line ends", path, st.Bytes, fi.Size(), st.Lines)
		}
		st.Bytes = 0
		back := func(tm time.Time) time.Time { return tm.Add(-rel.shift) }
		out := relationRun{st: st, results: a.Results(), closed: a.ResultsClosed(), links: a.LinksSeen(), routers: a.RoutersSeen(),
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
		from, to := c.Start.Add(rel.shift), c.End.Add(rel.shift)
		for _, e := range agg.Events(from, to) {
			e.Bin, e.ASN = back(e.Bin), rel.asnBack(e.ASN)
			out.events = append(out.events, e)
		}
		backPoints := func(pts []timeseries.Point) []timeseries.Point {
			for i := range pts {
				pts[i].T = back(pts[i].T)
			}
			return pts
		}
		for _, asn := range agg.ASes() {
			orig := rel.asnBack(asn)
			out.ases = append(out.ases, orig)
			out.delayMag[orig] = backPoints(agg.DelayMagnitude(asn, from, to))
			out.fwdMag[orig] = backPoints(agg.ForwardingMagnitude(asn, from, to))
		}
		return out
	}
	return run(paths[0], identity), run(paths[1], rel)
}
