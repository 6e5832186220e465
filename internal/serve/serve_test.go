package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/segstore"
	"pinpoint/internal/stats"
	"pinpoint/internal/trace"
)

var t0 = time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)

// newTestPipeline builds a real analyzer + publisher + server whose state
// tests drive synthetically through the analyzer's hooks — the same calls
// core makes, in the same order.
func newTestPipeline(t *testing.T) (*core.Analyzer, *Publisher, *Server) {
	t.Helper()
	return newTestPipelineStore(t, nil)
}

// newTestPipelineStore is newTestPipeline committing to st when non-nil.
func newTestPipelineStore(t *testing.T, st *segstore.Store) (*core.Analyzer, *Publisher, *Server) {
	t.Helper()
	var tbl ipmap.Table
	for p, asn := range map[string]ipmap.ASN{"10.1.0.0/16": 100, "10.2.0.0/16": 200} {
		if err := tbl.Add(netip.MustParsePrefix(p), asn); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.Config{}
	cfg.Events.Window = 6 * time.Hour
	cfg.Events.Threshold = 3
	a := core.New(cfg, func(int) (ipmap.ASN, bool) { return 0, false }, &tbl)
	t.Cleanup(a.Close)
	meta := Meta{
		Case: "test", Description: "synthetic pipeline",
		Start: t0, End: t0.Add(12 * time.Hour),
	}
	var pub *Publisher
	if st == nil {
		pub = NewPublisher(a, meta)
	} else {
		var err error
		if pub, err = NewPublisherWithStore(a, meta, st); err != nil {
			t.Fatal(err)
		}
	}
	return a, pub, NewServer(pub, Options{Logf: func(string, ...any) {}})
}

func mkDelayAlarm(bin time.Time, near, far string, dev float64) delay.Alarm {
	return delay.Alarm{
		Bin:       bin,
		Link:      trace.LinkKey{Near: netip.MustParseAddr(near), Far: netip.MustParseAddr(far)},
		Observed:  stats.MedianCI{Median: 10 + dev, N: 12},
		Reference: stats.MedianCI{Median: 10, N: 30},
		Deviation: dev, DiffMS: dev, Probes: 9, ASes: 4,
	}
}

func mkFwdAlarm(bin time.Time, router string, rho float64) forwarding.Alarm {
	return forwarding.Alarm{
		Bin:    bin,
		Router: netip.MustParseAddr(router),
		Dst:    netip.MustParseAddr("198.51.100.1"),
		Rho:    rho,
		Hops:   []forwarding.HopScore{{Hop: netip.MustParseAddr("10.2.0.9"), Responsibility: -0.4}},
	}
}

// closeBin replays exactly what core does when a bin closes: aggregator
// updates and alarm hooks first, then the aggregator's close, then
// OnBinClose.
func closeBin(a *core.Analyzer, bin time.Time, das []delay.Alarm, fas []forwarding.Alarm) {
	agg := a.Aggregator()
	agg.ObserveBin(bin)
	for _, al := range das {
		agg.AddDelayAlarm(al)
		a.OnDelayAlarm(al)
	}
	for _, al := range fas {
		agg.AddForwardingAlarm(al)
		a.OnForwardingAlarm(al)
	}
	var d events.CloseDelta
	a.OnBinClose(bin, agg.CloseBins(bin.Add(agg.Config().BinSize), &d), &d)
}

func get(t *testing.T, srv *Server, url string, hdr ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// Regression: before the first alarm/event the legacy handlers encoded nil
// slices, serving the JSON literal `null`; /api/magnitude served `{}` with
// neither family key. Empty collections must serve as empty arrays.
func TestEmptyCollectionsServeArraysNotNull(t *testing.T) {
	_, _, srv := newTestPipeline(t)
	for _, url := range []string{"/api/alarms/delay", "/api/alarms/forwarding", "/api/events"} {
		rec := get(t, srv, url)
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", url, rec.Code)
		}
		if body := rec.Body.String(); body != "[]\n" {
			t.Errorf("%s body = %q, want \"[]\\n\"", url, body)
		}
	}
	rec := get(t, srv, "/api/magnitude?asn=100")
	want := "{\n  \"delay\": [],\n  \"forwarding\": []\n}\n"
	if rec.Body.String() != want {
		t.Errorf("magnitude body = %q, want %q", rec.Body.String(), want)
	}
	// Filtered empty results are arrays too.
	if body := get(t, srv, "/api/alarms/delay?link=nope").Body.String(); body != "[]\n" {
		t.Errorf("filtered empty body = %q", body)
	}
}

// Regression: a failed run used to flip done=true and only log the error,
// making /api/status indistinguishable from a successful completion.
func TestFailedRunSurfacesInStatusAndIndex(t *testing.T) {
	a, pub, srv := newTestPipeline(t)
	closeBin(a, t0, []delay.Alarm{mkDelayAlarm(t0, "10.1.0.1", "10.2.0.1", 1)}, nil)
	pub.Finish(errors.New("open dump: no such file"))

	var st struct {
		Done   bool   `json:"done"`
		Failed bool   `json:"failed"`
		Err    string `json:"error"`
	}
	rec := get(t, srv, "/api/status")
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Done {
		t.Error("failed run reports done=true")
	}
	if !st.Failed || !strings.Contains(st.Err, "no such file") {
		t.Errorf("failed run: failed=%v err=%q, want failure surfaced", st.Failed, st.Err)
	}
	if idx := get(t, srv, "/").Body.String(); !strings.Contains(idx, "FAILED: open dump: no such file") {
		t.Errorf("index page hides the failure: %q", idx)
	}
	// Finish is terminal and idempotent: a later Finish(nil) cannot
	// retroactively mark the run successful.
	pub.Finish(nil)
	if s := pub.Snapshot(); !s.Failed || s.Done {
		t.Errorf("second Finish overwrote the failure: done=%v failed=%v", s.Done, s.Failed)
	}
}

// Regression: the legacy writeJSON streamed the encoder straight into the
// ResponseWriter and called http.Error after a partial body on failure.
// Encoding now happens before any byte is written: the client gets a clean
// 500, never a truncated 200.
func TestEncodeErrorsProduceClean500(t *testing.T) {
	var logged []string
	srv := NewServer(&Publisher{}, Options{Logf: func(f string, a ...any) {
		logged = append(logged, f)
	}})
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, math.NaN()) // unencodable
	if rec.Code != 500 {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if b := rec.Body.String(); strings.Contains(b, "{") || strings.Contains(b, "[") {
		t.Errorf("partial JSON leaked into the error response: %q", b)
	}
	if len(logged) == 0 {
		t.Error("encode failure was not logged")
	}
}

func TestMidRunAndPostRunSnapshots(t *testing.T) {
	a, pub, srv := newTestPipeline(t)
	if got := pub.Snapshot().Seq; got != 1 {
		t.Fatalf("initial snapshot seq = %d, want 1", got)
	}

	closeBin(a, t0, []delay.Alarm{mkDelayAlarm(t0, "10.1.0.1", "10.2.0.1", 1)}, nil)
	mid := pub.Snapshot()
	if mid.Complete() {
		t.Error("mid-run snapshot reports complete")
	}
	if len(mid.DelayAlarms) != 1 || !mid.LastBin.Equal(t0) {
		t.Errorf("mid-run snapshot: %d alarms, lastBin %v", len(mid.DelayAlarms), mid.LastBin)
	}

	// Quiet history, then a big spike: a magnitude peak against a calm
	// window makes an event. The old snapshot must not change throughout.
	for h := 1; h <= 4; h++ {
		bin := t0.Add(time.Duration(h) * time.Hour)
		closeBin(a, bin, []delay.Alarm{mkDelayAlarm(bin, "10.1.0.1", "10.2.0.1", 1)}, nil)
	}
	spikeBin := t0.Add(5 * time.Hour)
	closeBin(a, spikeBin,
		[]delay.Alarm{mkDelayAlarm(spikeBin, "10.1.0.1", "10.2.0.1", 50)},
		[]forwarding.Alarm{mkFwdAlarm(spikeBin, "10.1.0.1", -0.6)})
	if len(mid.DelayAlarms) != 1 || len(mid.Events) != 0 {
		t.Error("published snapshot mutated by a later bin close")
	}
	cur := pub.Snapshot()
	if len(cur.DelayAlarms) != 6 || len(cur.FwdAlarms) != 1 {
		t.Errorf("post-close snapshot: %d delay, %d fwd", len(cur.DelayAlarms), len(cur.FwdAlarms))
	}
	if len(cur.Events) == 0 {
		t.Error("spike produced no event in the snapshot")
	}

	pub.Finish(nil)
	fin := pub.Snapshot()
	if !fin.Done || fin.Failed {
		t.Errorf("final snapshot done=%v failed=%v", fin.Done, fin.Failed)
	}
	var evs []Event
	if err := json.Unmarshal(get(t, srv, "/api/events").Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(fin.Events) {
		t.Errorf("endpoint serves %d events, snapshot has %d", len(evs), len(fin.Events))
	}
	// Magnitude is served from the published region and carries both keys.
	var mag struct {
		Delay      []Point `json:"delay"`
		Forwarding []Point `json:"forwarding"`
	}
	if err := json.Unmarshal(get(t, srv, "/api/magnitude?asn=100").Body.Bytes(), &mag); err != nil {
		t.Fatal(err)
	}
	if len(mag.Delay) == 0 {
		t.Error("AS100 delay magnitude empty after completed run")
	}
}

func TestFiltersAndPagination(t *testing.T) {
	a, pub, srv := newTestPipeline(t)
	linkA, linkB := "10.1.0.1>10.2.0.1", "10.1.0.2>10.2.0.2"
	for h := 0; h < 4; h++ {
		bin := t0.Add(time.Duration(h) * time.Hour)
		closeBin(a, bin, []delay.Alarm{
			mkDelayAlarm(bin, "10.1.0.1", "10.2.0.1", float64(h)+1),
			mkDelayAlarm(bin, "10.1.0.2", "10.2.0.2", 0.5),
		}, []forwarding.Alarm{mkFwdAlarm(bin, "10.1.0.1", -0.3-0.1*float64(h))})
	}
	pub.Finish(nil)

	decode := func(rec *httptest.ResponseRecorder, v any) {
		t.Helper()
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatal(err)
		}
	}

	var das []DelayAlarm
	decode(get(t, srv, "/api/alarms/delay"), &das)
	if len(das) != 8 {
		t.Fatalf("unfiltered: %d alarms, want 8", len(das))
	}

	// Time window [t0+1h, t0+3h) → 2 bins × 2 alarms.
	decode(get(t, srv, "/api/alarms/delay?from="+t0.Add(time.Hour).Format(time.RFC3339)+
		"&to="+t0.Add(3*time.Hour).Format(time.RFC3339)), &das)
	if len(das) != 4 {
		t.Errorf("time filter: %d alarms, want 4", len(das))
	}
	for _, al := range das {
		if al.Bin.Before(t0.Add(time.Hour)) || !al.Bin.Before(t0.Add(3*time.Hour)) {
			t.Errorf("alarm bin %v outside filter window", al.Bin)
		}
	}

	decode(get(t, srv, "/api/alarms/delay?link="+linkA), &das)
	if len(das) != 4 {
		t.Errorf("link filter: %d alarms, want 4", len(das))
	}
	decode(get(t, srv, "/api/alarms/delay?min_deviation=3"), &das)
	if len(das) != 2 { // deviations 3 and 4 on linkA
		t.Errorf("min_deviation filter: %d alarms, want 2", len(das))
	}
	_ = linkB

	var fas []FwdAlarm
	decode(get(t, srv, "/api/alarms/forwarding?max_rho=-0.45"), &fas)
	if len(fas) != 2 { // ρ = -0.5, -0.6
		t.Errorf("max_rho filter: %d alarms, want 2", len(fas))
	}

	// Cursor pagination walks the full set without gaps or repeats.
	var walked []DelayAlarm
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 10 {
			t.Fatal("pagination did not terminate")
		}
		url := "/api/alarms/delay?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var pg struct {
			Items      []DelayAlarm `json:"items"`
			NextCursor string       `json:"next_cursor"`
		}
		decode(get(t, srv, url), &pg)
		if len(pg.Items) > 3 {
			t.Fatalf("page of %d > limit 3", len(pg.Items))
		}
		walked = append(walked, pg.Items...)
		if pg.NextCursor == "" {
			break
		}
		cursor = pg.NextCursor
	}
	if len(walked) != 8 {
		t.Fatalf("pagination walked %d alarms, want 8", len(walked))
	}
	decode(get(t, srv, "/api/alarms/delay"), &das)
	for i := range das {
		if walked[i] != das[i] {
			t.Errorf("paginated item %d differs from unpaginated listing", i)
		}
	}

	// Filters compose with pagination.
	var pg struct {
		Items      []DelayAlarm `json:"items"`
		NextCursor string       `json:"next_cursor"`
	}
	decode(get(t, srv, "/api/alarms/delay?link="+linkA+"&limit=3"), &pg)
	if len(pg.Items) != 3 || pg.NextCursor == "" {
		t.Errorf("filtered page: %d items, next=%q", len(pg.Items), pg.NextCursor)
	}

	// Events filters.
	var evs []Event
	decode(get(t, srv, "/api/events?type=delay-change"), &evs)
	for _, e := range evs {
		if e.Type != "delay-change" {
			t.Errorf("type filter leaked %q", e.Type)
		}
	}
	decode(get(t, srv, "/api/events?asn=AS100"), &evs)
	for _, e := range evs {
		if e.ASN != "AS100" {
			t.Errorf("asn filter leaked %q", e.ASN)
		}
	}

	// Invalid parameters are rejected up front.
	for _, bad := range []string{
		"/api/alarms/delay?from=yesterday",
		"/api/alarms/delay?limit=0",
		"/api/alarms/delay?limit=x",
		"/api/alarms/delay?cursor=-1",
		"/api/events?min_magnitude=big",
		"/api/magnitude?asn=100&to=notatime",
		"/api/alarms/delay?min_deviation=NaN",
		"/api/alarms/forwarding?max_rho=NaN",
		"/api/events?min_magnitude=NaN",
	} {
		if rec := get(t, srv, bad); rec.Code != 400 {
			t.Errorf("%s: status %d, want 400", bad, rec.Code)
		}
	}
}

func TestETagRevalidation(t *testing.T) {
	a, pub, srv := newTestPipeline(t)
	closeBin(a, t0, []delay.Alarm{mkDelayAlarm(t0, "10.1.0.1", "10.2.0.1", 2)}, nil)

	// Mid-run: snapshots are immutable between publications, so polling gets
	// a validator that is stable across no-op polls…
	midETag := get(t, srv, "/api/alarms/delay").Header().Get("ETag")
	if midETag == "" {
		t.Fatal("mid-run response served no ETag")
	}
	if again := get(t, srv, "/api/alarms/delay").Header().Get("ETag"); again != midETag {
		t.Errorf("mid-run ETag unstable across no-op polls: %q then %q", midETag, again)
	}
	if rec := get(t, srv, "/api/alarms/delay", "If-None-Match", midETag); rec.Code != 304 {
		t.Errorf("mid-run revalidation status %d, want 304", rec.Code)
	}
	midMag := get(t, srv, "/api/magnitude?asn=100").Header().Get("ETag")
	if midMag == "" {
		t.Fatal("mid-run magnitude response served no ETag")
	}
	if rec := get(t, srv, "/api/magnitude?asn=100", "If-None-Match", midMag); rec.Code != 304 {
		t.Errorf("mid-run magnitude revalidation status %d, want 304", rec.Code)
	}
	midStatus := get(t, srv, "/api/status").Header().Get("ETag")
	if midStatus == "" {
		t.Fatal("mid-run status served no ETag")
	}
	if rec := get(t, srv, "/api/status", "If-None-Match", midStatus); rec.Code != 304 {
		t.Errorf("mid-run status revalidation status %d, want 304", rec.Code)
	}

	// …and that a bin close invalidates: the next snapshot's bytes differ,
	// so a conditional GET with the stale validator gets a fresh 200.
	bin1 := t0.Add(time.Hour)
	closeBin(a, bin1, []delay.Alarm{mkDelayAlarm(bin1, "10.1.0.2", "10.2.0.2", 2)}, nil)
	rec := get(t, srv, "/api/alarms/delay", "If-None-Match", midETag)
	if rec.Code != 200 {
		t.Errorf("post-close revalidation status %d, want 200", rec.Code)
	}
	if etag := rec.Header().Get("ETag"); etag == midETag {
		t.Error("bin close did not rotate the alarms ETag")
	}
	if rec := get(t, srv, "/api/magnitude?asn=100", "If-None-Match", midMag); rec.Code != 200 {
		t.Errorf("post-close magnitude revalidation status %d, want 200", rec.Code)
	}
	if rec := get(t, srv, "/api/status", "If-None-Match", midStatus); rec.Code != 200 {
		t.Errorf("post-close status revalidation status %d, want 200", rec.Code)
	}

	pub.Finish(nil)
	rec = get(t, srv, "/api/alarms/delay")
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("completed run served no ETag")
	}
	rec304 := get(t, srv, "/api/alarms/delay", "If-None-Match", etag)
	if rec304.Code != 304 {
		t.Fatalf("revalidation status %d, want 304", rec304.Code)
	}
	if rec304.Body.Len() != 0 {
		t.Errorf("304 carried a body: %q", rec304.Body.String())
	}
	if rec := get(t, srv, "/api/alarms/delay", "If-None-Match", `"different"`); rec.Code != 200 {
		t.Errorf("stale validator status %d, want 200", rec.Code)
	}
	// Repeated GETs serve identical bytes (the pre-encoded payload).
	if got := get(t, srv, "/api/alarms/delay").Body.String(); got != rec.Body.String() {
		t.Error("pre-encoded payload changed between identical GETs")
	}
	// Parameterized magnitude reads revalidate on completed runs too.
	m := get(t, srv, "/api/magnitude?asn=100")
	if metag := m.Header().Get("ETag"); metag == "" {
		t.Error("completed magnitude response has no ETag")
	} else if rec := get(t, srv, "/api/magnitude?asn=100", "If-None-Match", metag); rec.Code != 304 {
		t.Errorf("magnitude revalidation status %d, want 304", rec.Code)
	}
	// /api/status on the terminal snapshot revalidates as well.
	st := get(t, srv, "/api/status")
	if setag := st.Header().Get("ETag"); setag == "" {
		t.Error("terminal status has no ETag")
	}
}
