package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/experiments"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

// The read path as it was before the encoded streams, kept verbatim as the
// oracle: filter and page into reflection-encoded envelopes, magnitude
// through a copied point slice, everything through json.MarshalIndent.

type page[T any] struct {
	Items      []T    `json:"items"`
	NextCursor string `json:"next_cursor,omitempty"`
}

func filterPage[T any](all []T, match func(T) bool, q query) page[T] {
	out := page[T]{Items: []T{}}
	i := q.cursor
	if !q.paged {
		i = 0
	}
	for ; i < len(all); i++ {
		if !match(all[i]) {
			continue
		}
		if q.paged && len(out.Items) == q.limit {
			out.NextCursor = strconv.Itoa(i)
			return out
		}
		out.Items = append(out.Items, all[i])
	}
	return out
}

type magnitudeJSON struct {
	Delay      []Point `json:"delay"`
	Forwarding []Point `json:"forwarding"`
}

// oracleMagPoints is the published points whose bin passes the shared
// [from, to) filter of every list endpoint; point i of the dense series is
// the bin MagStart + i·BinSize.
func oracleMagPoints(s *Snapshot, vals []float64, from, to time.Time) []Point {
	out := []Point{}
	if s.BinSize <= 0 || s.MagEnd.IsZero() {
		return out
	}
	q := query{haveFrom: true, from: from, haveTo: true, to: to}
	for i, v := range vals {
		bin := s.MagStart.Add(time.Duration(i) * s.BinSize)
		if q.binMatch(bin) && bin.Before(s.MagEnd) {
			out = append(out, Point{T: bin, V: v})
		}
	}
	return out
}

func oracleList[T any](all []T, q query, match func(*query, *T) bool) ([]byte, error) {
	if !q.anyFilter() && !q.paged {
		if all == nil {
			all = []T{}
		}
		return encodePayload(all)
	}
	pg := filterPage(all, func(v T) bool { return match(&q, &v) }, q)
	if q.paged {
		return encodePayload(pg)
	}
	return encodePayload(pg.Items)
}

// oracleBody is what a 200 for url must carry when served from snap.
func oracleBody(snap *Snapshot, url string) ([]byte, error) {
	r := httptest.NewRequest("GET", url, nil)
	q, err := parseQuery(r)
	if err != nil {
		return nil, err
	}
	switch r.URL.Path {
	case "/api/alarms/delay":
		return oracleList(snap.DelayAlarms, q, matchDelayAlarm)
	case "/api/alarms/forwarding":
		return oracleList(snap.FwdAlarms, q, matchFwdAlarm)
	case "/api/events":
		return oracleList(snap.Events, q, matchEvent)
	case "/api/magnitude":
		asn, err := strconv.ParseUint(q.asn, 10, 32)
		if err != nil {
			return nil, err
		}
		from, to := snap.Meta.Start, snap.Meta.End
		if q.haveFrom {
			from = q.from
		}
		if q.haveTo {
			to = q.to
		}
		return encodePayload(magnitudeJSON{
			Delay:      oracleMagPoints(snap, snap.delayMag[ipmap.ASN(asn)], from, to),
			Forwarding: oracleMagPoints(snap, snap.fwdMag[ipmap.ASN(asn)], from, to),
		})
	}
	return nil, fmt.Errorf("no oracle for %s", url)
}

// pinned serves one fixed snapshot of a source, so a test knows which
// snapshot a response was rendered from.
type pinned struct {
	Source
	snap *Snapshot
}

func (p pinned) Snapshot() *Snapshot { return p.snap }

func getPinned(src Source, snap *Snapshot, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	NewServer(pinned{src, snap}, Options{Logf: func(string, ...any) {}}).Handler().
		ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

// checkAgainstOracle reads url from snap and compares it with the oracle.
// It reports through Errorf only, so reader goroutines may call it.
func checkAgainstOracle(t *testing.T, src Source, snap *Snapshot, url string) {
	t.Helper()
	want, err := oracleBody(snap, url)
	if err != nil {
		t.Errorf("%s: oracle: %v", url, err)
		return
	}
	rec := getPinned(src, snap, url)
	if rec.Code != 200 {
		t.Errorf("%s at seq %d: status %d", url, snap.Seq, rec.Code)
	} else if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("%s at seq %d: %d bytes served, oracle has %d", url, snap.Seq, rec.Body.Len(), len(want))
	}
}

// FuzzRenderDifferential: for arbitrary rows each append*JSON encoder emits
// exactly json.MarshalIndent's bytes, at list depth and one level down (a
// page's items, a magnitude family), and rejects exactly the rows the
// oracle rejects — non-finite floats, years outside [0, 9999].
func FuzzRenderDifferential(f *testing.F) {
	// Rows of the golden ddos payloads (every link is "a>b", escaped).
	f.Add("10.7.209.2>193.0.15.129", "AS25101", "delay-change", 71.16029871365963, 0.9952700333770025, 679.8095576591018, 8, int64(1448866800), int64(0), 0)
	f.Add("10.7.209.3>193.0.14.129", "AS2003", "forwarding-anomaly", -0.6, 1479.1372415071928, -12.5, 7, int64(1448870400), int64(0), 3600)
	f.Add("<script>&amp;</script>", "\u2028\u2029", "\x00\x01\x1f\b\f\n\r\t\"\\", 1e-7, 1e21, math.Copysign(0, -1), -1, int64(0), int64(123456789), -5*3600)
	f.Add("\xff\xfe bad utf8 \xc3", "é€😀", "", 5e-324, 1e-6, 123456789012345678.0, math.MaxInt32, int64(253402300799), int64(999999999), 0)
	f.Add("", "", "", math.NaN(), 1.0, 1.0, 0, int64(0), int64(0), 0)
	f.Add("", "", "", 1.0, math.Inf(1), 1.0, 0, int64(0), int64(0), 0)
	f.Add("", "", "", 1.0, 1.0, math.Inf(-1), 0, int64(0), int64(0), 0)
	f.Add("", "", "", 1.0, 1.0, 1.0, 0, int64(253402300800), int64(0), 0)   // year 10000
	f.Add("", "", "", 1.0, 1.0, 1.0, 0, int64(-62167219201), int64(0), 0)   // year -1
	f.Add("", "", "", 1.0, 1.0, 1.0, 0, int64(1448866800), int64(0), 90000) // 25 h zone offset
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, f1, f2, f3 float64, n int, sec, nsec int64, zone int) {
		at := time.Unix(sec, nsec).UTC()
		if zone != 0 {
			at = at.In(time.FixedZone("", zone))
		}
		da := DelayAlarm{Bin: at, Link: s1, MedianMS: f1, RefMS: f2, ShiftMS: f3, Deviation: f1, Probes: int32(n), ASes: -int32(n)}
		fa := FwdAlarm{Bin: at, Router: s1, Dst: s2, Rho: f1, TopHop: s3, TopR: f2}
		ev := Event{ASN: s2, Bin: at, Type: s3, Magnitude: f3}
		pt := timeseries.Point{T: at, V: f2}
		differential(t, da, da, appendDelayAlarmJSON)
		differential(t, fa, fa, appendFwdAlarmJSON)
		differential(t, ev, ev, appendEventJSON)
		differential(t, pt, Point{T: pt.T, V: pt.V}, func(dst []byte, ind string, p *timeseries.Point) ([]byte, error) {
			return appendPointJSON(dst, ind, p.T, p.V)
		})
	})
}

// differential compares enc over two copies of row against the oracle's
// encoding of the same rows in wire form w, at both depths.
func differential[T, W any](t *testing.T, row T, w W, enc rowEncoder[T]) {
	t.Helper()
	for _, depth := range []struct {
		ind, open, close string
		oracle           any
	}{
		{listIndent, "[", "\n]", []W{w, w}},
		{nestedIndent, "{\n  \"items\": [", "\n  ]\n}", page[W]{Items: []W{w, w}}},
	} {
		want, werr := json.MarshalIndent(depth.oracle, "", "  ")
		got := []byte(depth.open)
		got, err := enc(got, depth.ind, &row)
		if err == nil {
			got, err = enc(append(got, ','), depth.ind, &row)
		}
		if (err != nil) != (werr != nil) {
			t.Fatalf("%T: encoder error %v, oracle error %v", row, err, werr)
		}
		if err != nil {
			continue
		}
		if got = append(got, depth.close...); !bytes.Equal(got, want) {
			t.Fatalf("%T at indent %q:\n got %q\nwant %q", row, depth.ind, got, want)
		}
	}
}

// appendMatches frames filtered and paged reads exactly as the oracle's
// envelopes did, including the empty page, the final page without a cursor
// and cursors beyond the list.
func TestFilteredAndPagedReadsMatchOracle(t *testing.T) {
	a, pub, _ := newTestPipeline(t)
	for h := 0; h < 6; h++ {
		bin := t0.Add(time.Duration(h) * time.Hour)
		closeBin(a, bin, []delay.Alarm{
			mkDelayAlarm(bin, "10.1.0.1", "10.2.0.1", 1+49*float64(h/5)), // quiet, then a spike
			mkDelayAlarm(bin, "10.1.0.2", "10.2.0.2", 0.5),
		}, []forwarding.Alarm{mkFwdAlarm(bin, "10.1.0.1", -0.3-0.1*float64(h))})
	}
	pub.Finish(nil)
	snap := pub.Snapshot()
	if len(snap.Events) == 0 {
		t.Fatal("no events: the events reads are vacuous")
	}
	from := t0.Add(time.Hour).Format(time.RFC3339)
	to := t0.Add(3 * time.Hour).Format(time.RFC3339)
	for _, url := range []string{
		"/api/alarms/delay?limit=3",
		"/api/alarms/delay?limit=3&cursor=9",
		"/api/alarms/delay?limit=10",
		"/api/alarms/delay?cursor=4",
		"/api/alarms/delay?cursor=400",
		"/api/alarms/delay?limit=1&link=nope",
		"/api/alarms/delay?link=10.1.0.1%3E10.2.0.1",
		"/api/alarms/delay?link=10.1.0.1%3E10.2.0.1&limit=2&cursor=1",
		"/api/alarms/delay?min_deviation=3&from=" + from,
		"/api/alarms/delay?from=" + from + "&to=" + to,
		"/api/alarms/forwarding?max_rho=-0.45",
		"/api/alarms/forwarding?router=10.1.0.1&dst=198.51.100.1&limit=2",
		"/api/alarms/forwarding?router=nope",
		"/api/events?type=delay-change",
		"/api/events?asn=AS100&min_magnitude=1&limit=1",
		"/api/events?to=" + to,
		"/api/magnitude?asn=100",
		"/api/magnitude?asn=100&from=" + from,
		"/api/magnitude?asn=100&from=" + from + "&to=" + to,
		"/api/magnitude?asn=100&to=" + from + "&from=" + to,
		"/api/magnitude?asn=200&to=" + to,
		"/api/magnitude?asn=4294967295",
	} {
		checkAgainstOracle(t, pub, snap, url)
	}
	if n := len(snap.enc.mag); n > 4 {
		t.Errorf("%d magnitude streams for 2 ASes: series-less ASes must not mint streams", n)
	}
}

// /api/magnitude applies the bin filter of every list endpoint: a point is
// served when its bin start lies in [from, to), also when from and to fall
// inside a bin. Floored bounds served the 02:00 point for 02:30–03:30, and
// nothing for 03:00–03:30, while the delay alarms of the same range are
// the 03:00 bin's.
func TestMagnitudeRangeFollowsBinFilter(t *testing.T) {
	a, pub, _ := newTestPipeline(t)
	for h := 0; h < 6; h++ {
		bin := t0.Add(time.Duration(h) * time.Hour)
		closeBin(a, bin, []delay.Alarm{mkDelayAlarm(bin, "10.1.0.1", "10.2.0.1", 1+float64(h))}, nil)
	}
	pub.Finish(nil)
	snap := pub.Snapshot()
	at := func(h, m int) string {
		return t0.Add(time.Duration(h)*time.Hour + time.Duration(m)*time.Minute).Format(time.RFC3339)
	}
	want := t0.Add(3 * time.Hour)
	for _, r := range [][2]string{{at(2, 30), at(3, 30)}, {at(3, 0), at(3, 30)}, {at(2, 30), at(4, 0)}} {
		q := "from=" + r[0] + "&to=" + r[1]
		var mag magnitudeJSON
		if err := json.Unmarshal(getPinned(pub, snap, "/api/magnitude?asn=100&"+q).Body.Bytes(), &mag); err != nil {
			t.Fatal(err)
		}
		if len(mag.Delay) != 1 || !mag.Delay[0].T.Equal(want) {
			t.Errorf("%s: magnitude points %+v, want the 03:00 bin's", q, mag.Delay)
		}
		var alarms []DelayAlarm
		if err := json.Unmarshal(getPinned(pub, snap, "/api/alarms/delay?"+q).Body.Bytes(), &alarms); err != nil {
			t.Fatal(err)
		}
		if len(alarms) != 1 || !alarms[0].Bin.Equal(want) {
			t.Errorf("%s: delay alarms %+v, want the 03:00 bin's", q, alarms)
		}
		checkAgainstOracle(t, pub, snap, "/api/magnitude?asn=100&"+q)
	}
}

// A row the encoders cannot represent is a clean 500 wherever a read
// reaches it — and stays one — while reads that end before it still serve.
func TestUnencodableRowIsAClean500(t *testing.T) {
	var m mirror
	m.delay = []DelayAlarm{{Bin: t0, Link: "a>b"}, {Bin: t0, Link: "c>d", Deviation: math.NaN()}}
	good, bad := m.assemble(), m.assemble()
	good.DelayAlarms = good.DelayAlarms[:1]
	src := &Publisher{}
	for i := 0; i < 2; i++ {
		for _, url := range []string{"/api/alarms/delay", "/api/alarms/delay?limit=5", "/api/alarms/delay?link=c%3Ed"} {
			rec := getPinned(src, bad, url)
			if rec.Code != 500 || bytes.ContainsAny(rec.Body.Bytes(), "{[") {
				t.Errorf("%s: status %d body %q, want a clean 500", url, rec.Code, rec.Body.String())
			}
		}
		checkAgainstOracle(t, src, good, "/api/alarms/delay")
		checkAgainstOracle(t, src, bad, "/api/alarms/delay?link=a%3Eb")
	}
}

func TestETagMatch(t *testing.T) {
	const etag = `"5f1d"`
	for _, c := range []struct {
		header string
		want   bool
	}{
		{``, false},
		{`"5f1d"`, true},
		{`W/"5f1d"`, true},
		{`*`, true},
		{` * `, true},
		{`"a", "5f1d"`, true},
		{`"a",W/"5f1d" , "b"`, true},
		{`W/"a", W/"b"`, false},
		{`"a,5f1d"`, false},
		{`"5f1d`, false},
		{`5f1d`, false},
		{`"5f1"`, false},
		{`"a" "5f1d"`, true},
		{`"a", *`, false},
	} {
		if got := etagMatch(c.header, etag); got != c.want {
			t.Errorf("etagMatch(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// Every ETag-bearing endpoint revalidates on a single, listed, weakened or
// wildcard validator, mid-run and complete, and on nothing else.
func TestConditionalRequestsOnEveryEndpoint(t *testing.T) {
	a, pub, srv := newTestPipeline(t)
	closeBin(a, t0, []delay.Alarm{mkDelayAlarm(t0, "10.1.0.1", "10.2.0.1", 2)},
		[]forwarding.Alarm{mkFwdAlarm(t0, "10.1.0.1", -0.6)})
	urls := []string{
		"/api/status", "/api/alarms/delay", "/api/alarms/forwarding", "/api/events",
		"/api/magnitude?asn=100", "/api/magnitude?asn=100&from=" + t0.Format(time.RFC3339),
	}
	for _, phase := range []string{"mid-run", "complete"} {
		for _, url := range urls {
			etag := get(t, srv, url).Header().Get("ETag")
			if etag == "" {
				t.Fatalf("%s %s: no ETag", phase, url)
			}
			for header, want := range map[string]int{
				etag:                            304,
				"W/" + etag:                     304,
				`"other", ` + etag:              304,
				`W/"other", W/` + etag + `, ""`: 304,
				"*":                             304,
				`"other"`:                       200,
				`W/"other", "` + etag[2:]:       200,
				etag[:len(etag)-1]:              200,
			} {
				rec := get(t, srv, url, "If-None-Match", header)
				if rec.Code != want {
					t.Errorf("%s %s If-None-Match %s: status %d, want %d", phase, url, header, rec.Code, want)
				}
				if rec.Code == 304 && (rec.Body.Len() != 0 || rec.Header().Get("ETag") != etag) {
					t.Errorf("%s %s: 304 with body %q, ETag %q", phase, url, rec.Body.String(), rec.Header().Get("ETag"))
				}
			}
		}
		pub.Finish(nil)
	}
}

// TestRowsRenderedOnce reads every list and every magnitude series after
// each bin close of a ddos run: each read returns the oracle's bytes, the
// first read after a close encodes exactly that close's rows, and at the
// end every stream has invoked its encoder once per row. Ranged reads and
// old snapshots read after newer ones are slices of the same bytes: they
// match the oracle and encode nothing.
func TestRowsRenderedOnce(t *testing.T) {
	c, err := experiments.NewCase("ddos", experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(core.Config{}, c.Platform.ProbeASN, c.Net.Prefixes())
	defer a.Close()
	pub := NewPublisher(a, Meta{Case: c.Name, Description: c.Description, Start: c.Start, End: c.End})

	type held struct { // a stream a URL reads, and the rows the snapshot has of it
		st   *stream
		rows int
	}
	rendered := map[*stream]int{} // rows each stream held after its last read
	read := func(snap *Snapshot, url string, hs ...held) {
		t.Helper()
		before := make([]int, len(hs))
		for i, h := range hs {
			before[i] = h.st.encodes
		}
		checkAgainstOracle(t, pub, snap, url)
		for i, h := range hs {
			if got, want := h.st.encodes-before[i], h.rows-rendered[h.st]; got != want {
				t.Errorf("%s at seq %d: %d encoder calls for %d new rows", url, snap.Seq, got, want)
			}
			rendered[h.st] = h.rows
		}
	}
	readAll := func(snap *Snapshot) {
		t.Helper()
		read(snap, "/api/alarms/delay", held{&snap.enc.delay, len(snap.DelayAlarms)})
		read(snap, "/api/alarms/forwarding", held{&snap.enc.fwd, len(snap.FwdAlarms)})
		read(snap, "/api/events", held{&snap.enc.events, len(snap.Events)})
		for asn, pts := range snap.delayMag {
			hs := []held{{snap.enc.magnitude(magKey{asn, false}), len(pts)}}
			if fpts := snap.fwdMag[asn]; len(fpts) > 0 {
				hs = append(hs, held{snap.enc.magnitude(magKey{asn, true}), len(fpts)})
			}
			read(snap, fmt.Sprintf("/api/magnitude?asn=%d", uint32(asn)), hs...)
		}
	}
	var old []*Snapshot
	publish := a.OnBinClose
	a.OnBinClose = func(bin time.Time, evs []events.Event, d *events.CloseDelta) {
		publish(bin, evs, d)
		snap := pub.Snapshot()
		readAll(snap)
		if snap.Seq%10 == 0 {
			old = append(old, snap)
		}
	}
	err = c.Platform.RunChunks(context.Background(), c.Start, c.End, 0, func(rs []trace.Result) error {
		a.ObserveBatch(rs)
		return nil
	})
	a.Flush()
	pub.Finish(err)
	if err != nil {
		t.Fatal(err)
	}
	fin := pub.Snapshot()
	readAll(fin)

	if len(old) < 5 || len(fin.DelayAlarms) == 0 || len(fin.Events) == 0 || len(fin.delayMag) == 0 {
		t.Fatalf("vacuous run: %d old snapshots, %d alarms, %d events, %d series",
			len(old), len(fin.DelayAlarms), len(fin.Events), len(fin.delayMag))
	}
	total := func() (n int) {
		for st := range rendered {
			n += st.encodes
		}
		return n
	}
	encodes := total()
	mid := c.Start.Add(c.End.Sub(c.Start) / 2).Format(time.RFC3339)
	for _, snap := range append(old, fin) {
		for _, url := range []string{"/api/alarms/delay", "/api/alarms/forwarding", "/api/events"} {
			checkAgainstOracle(t, pub, snap, url)
		}
		for asn := range snap.delayMag {
			base := fmt.Sprintf("/api/magnitude?asn=%d", uint32(asn))
			for _, rng := range []string{"", "&from=" + mid, "&to=" + mid, "&from=" + mid + "&to=" + c.End.Format(time.RFC3339)} {
				checkAgainstOracle(t, pub, snap, base+rng)
			}
		}
	}
	if got := total(); got != encodes {
		t.Errorf("ranged and old-snapshot reads invoked encoders %d times", got-encodes)
	}
	for st, rows := range rendered {
		if st.encodes != rows || len(st.marks) != rows {
			t.Errorf("stream of %d rows: %d encoder calls, %d marks", rows, st.encodes, len(st.marks))
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so AllocsPerRun
// sees the handler's allocations only.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestHandlerAllocationPins: once a stream is warm, an unfiltered list, a
// magnitude series, a ranged magnitude series and every 304 cost header
// work only — single-digit allocations however many rows they carry.
func TestHandlerAllocationPins(t *testing.T) {
	a, pub, srv := newTestPipeline(t)
	for h := 0; h < 10; h++ {
		bin := t0.Add(time.Duration(h) * time.Hour)
		var das []delay.Alarm
		for i := 0; i < 20; i++ {
			das = append(das, mkDelayAlarm(bin, "10.1.0.1", fmt.Sprintf("10.2.0.%d", i+1), 1+49*float64(h/8)))
		}
		closeBin(a, bin, das, []forwarding.Alarm{mkFwdAlarm(bin, "10.1.0.1", -0.6)})
	}
	pub.Finish(nil)
	if snap := pub.Snapshot(); len(snap.DelayAlarms) != 200 || len(snap.Events) == 0 {
		t.Fatalf("fixture: %d alarms, %d events", len(snap.DelayAlarms), len(snap.Events))
	}
	h := srv.Handler()
	w := &discardWriter{h: http.Header{}}
	for _, url := range []string{
		"/api/status", "/api/alarms/delay", "/api/alarms/forwarding", "/api/events",
		"/api/magnitude?asn=100",
		"/api/magnitude?asn=100&from=" + t0.Add(2*time.Hour).Format(time.RFC3339) + "&to=" + t0.Add(9*time.Hour).Format(time.RFC3339),
	} {
		full := httptest.NewRequest("GET", url, nil)
		h.ServeHTTP(w, full) // warm: renders the stream, sizes a pooled buffer
		cond := httptest.NewRequest("GET", url, nil)
		cond.Header.Set("If-None-Match", `"other", W/`+w.h.Get("ETag"))
		for name, req := range map[string]*http.Request{"200": full, "304": cond} {
			want, _ := strconv.Atoi(name)
			n := testing.AllocsPerRun(100, func() {
				clear(w.h)
				w.status = 200
				h.ServeHTTP(w, req)
			})
			if w.status != want {
				t.Errorf("%s: status %d, want %s", url, w.status, name)
			}
			if n >= 10 {
				t.Errorf("%s (%s): %.1f allocs per read, want single digits", url, name, n)
			} else {
				t.Logf("%s (%s): %.1f allocs", url, name, n)
			}
		}
	}
}

// Readers holding snapshots of every length race to extend the same fresh
// streams (run under -race in CI): whoever encodes a row, each reader gets
// exactly its own snapshot's prefix.
func TestConcurrentReadersExtendSharedStreams(t *testing.T) {
	m := mirror{meta: Meta{Case: "t", Start: t0, End: t0.Add(64 * time.Hour)}, binSize: time.Hour}
	snaps := []*Snapshot{m.assemble()}
	for h := 0; h < 64; h++ {
		bin := t0.Add(time.Duration(h) * time.Hour)
		d := Delta{
			Seq: uint64(h + 2), Bin: bin, MagStart: t0, MagThrough: bin.Add(time.Hour),
			DelayAlarms: []DelayAlarm{{Bin: bin, Link: "a>b", Deviation: float64(h)}, {Bin: bin, Link: "c>d", Probes: int32(h)}},
			Events:      []Event{{ASN: "AS100", Bin: bin, Type: "delay-change", Magnitude: float64(h) / 3}},
			DelayMag:    []MagRow{{ASN: 100, T: bin, V: float64(h) / 7}, {ASN: 200, T: bin, V: -float64(h)}},
			FwdMag:      []MagRow{{ASN: 100, T: bin, V: 1 / float64(h+1)}},
		}
		m.apply(&d)
		snaps = append(snaps, m.assemble())
	}
	mid := t0.Add(20 * time.Hour).Format(time.RFC3339)
	urls := []string{
		"/api/alarms/delay", "/api/events", "/api/alarms/forwarding",
		"/api/magnitude?asn=100", "/api/magnitude?asn=200&from=" + mid, "/api/magnitude?asn=100&to=" + mid,
	}
	src := &Publisher{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(snaps); i++ {
				snap := snaps[(i*(2*g+1)+g)%len(snaps)] // each reader its own order
				checkAgainstOracle(t, src, snap, urls[(i+g)%len(urls)])
			}
		}(g)
	}
	wg.Wait()
}

// queryGet answers exactly like url.Values.Get over the same raw query.
func TestQueryGetMatchesURLValues(t *testing.T) {
	for _, raw := range []string{
		"", "asn=1", "asn=1&asn=2", "asn=&asn=2", "asn", "=1&asn=3", "a%73n=4", "asn=a%3Eb+c",
		"asn=%zz&asn=5", "%zz=1&asn=6", "asn=1;x=2&asn=7", "x=1&&asn=8&", "asn=1=2", "limit=3&from=x&asn=9",
	} {
		vals, _ := url.ParseQuery(raw)
		for _, key := range []string{"asn", "limit", "from", "x", "missing"} {
			if got, want := queryGet(raw, key), vals.Get(key); got != want {
				t.Errorf("queryGet(%q, %q) = %q, url.Values.Get gives %q", raw, key, got, want)
			}
		}
	}
}
