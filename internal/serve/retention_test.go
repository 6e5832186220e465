package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"pinpoint/internal/events"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/segstore"
)

// TestSeqMarkIsPacked: a role keeps one mark per seq for the whole run, on
// the writer and on every follower, so the mark stays at 48 bytes.
func TestSeqMarkIsPacked(t *testing.T) {
	if n := unsafe.Sizeof(seqMark{}); n > 48 {
		t.Fatalf("seqMark is %d bytes, want at most 48", n)
	}
}

// TestMarkTimesKeepTheEpoch: a mark's "no bin" is not the Unix epoch, so a
// bin at 1970-01-01T00:00:00Z is listed, cut and resent like any other.
func TestMarkTimesKeepTheEpoch(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	if got := timeOf(unixOf(epoch)); !got.Equal(epoch) || got.IsZero() {
		t.Fatalf("the epoch bin unpacks to %v", got)
	}
	if got := timeOf(unixOf(time.Time{})); !got.IsZero() {
		t.Fatalf("no bin unpacks to %v", got)
	}
	m := newMirror(Meta{}, time.Hour)
	m.apply(&Delta{Seq: 1})
	m.apply(&Delta{Seq: 2, Bin: epoch, Results: 7, MagStart: epoch, MagThrough: epoch.Add(time.Hour),
		DelayMag: []MagRow{{ASN: 1, T: epoch, V: 2.5}}})
	snap := m.assemble()
	if bins := snap.bins(); len(bins) != 1 || !bins[0].Bin.Equal(epoch) || bins[0].Results != 7 {
		t.Fatalf("bins() = %+v, want the epoch bin", bins)
	}
	d := snap.cut(2)
	if !d.Bin.Equal(epoch) || !d.MagThrough.Equal(epoch.Add(time.Hour)) || len(d.DelayMag) != 1 {
		t.Fatalf("the epoch bin's cut = %+v", d)
	}
}

// TestResultCountPast32Bits: a run past 2³¹ results (the paper's year is
// ≈ 2.8 B traceroutes) keeps its count through a segment record's delta,
// the feed's JSON, a follower's mirror, its marks and /api/status and
// /api/bins — on a 32-bit int too, where narrowing it once wrapped the
// count and a follower's decoder refused the delta.
func TestResultCountPast32Bits(t *testing.T) {
	const n = int64(1)<<31 + 5
	rec := segstore.BinRecord{Bin: t0, FirstBin: t0, Results: n}
	live := deltaFromRecord(&rec, 2, time.Hour)
	b, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"results":2147483653,`)) {
		t.Fatalf("delta JSON %s does not carry the count", b)
	}
	d, err := decodeDelta(b)
	if err != nil {
		t.Fatalf("a follower refuses the delta: %v", err)
	}
	m := newMirror(Meta{Case: "big"}, time.Hour)
	m.apply(&Delta{Seq: 1})
	m.apply(&d)
	snap := m.assemble()
	if snap.Results != n {
		t.Fatalf("follower snapshot results = %d, want %d", snap.Results, n)
	}
	if cut, err := json.Marshal(snap.cut(2)); err != nil || !bytes.Equal(cut, b) {
		t.Fatalf("cut delta differs from the live one (%v):\n%s\n%s", err, cut, b)
	}
	srv := NewServer(snapSource{snap: snap}, Options{Logf: func(string, ...any) {}})
	var st struct{ Results int64 }
	if err := json.Unmarshal(get(t, srv, "/api/status").Body.Bytes(), &st); err != nil || st.Results != n {
		t.Fatalf("/api/status results = %d (%v), want %d", st.Results, err, n)
	}
	var bins []BinSummary
	if err := json.Unmarshal(get(t, srv, "/api/bins").Body.Bytes(), &bins); err != nil || len(bins) != 1 || bins[0].Results != n {
		t.Fatalf("/api/bins = %+v (%v), want one bin of %d results", bins, err, n)
	}
}

// TestPublisherReleasesOversizedRecord: after a close carrying 1 000
// magnitude rows (an AS set's zero backfill) and ten quiet closes, the
// publisher's reusable record holds no row slice larger than 4× what a
// quiet close needs (or 64 rows), and quiet closes keep reusing the
// buffers they have.
func TestPublisherReleasesOversizedRecord(t *testing.T) {
	st, err := segstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a, pub, _ := newTestPipelineStore(t, st)
	const ases = 100
	rows := func(from, to time.Time) []events.ASPoint {
		var pts []events.ASPoint
		for b := from; b.Before(to); b = b.Add(time.Hour) {
			for k := 0; k < ases; k++ {
				pts = append(pts, events.ASPoint{ASN: ipmap.ASN(1000 + k), T: b, V: 0.5})
			}
		}
		return pts
	}
	closeAt := func(bin time.Time, mag []events.ASPoint) {
		cd := events.CloseDelta{FirstBin: t0, DelayMag: mag, DelayRaw: rows(bin, bin.Add(time.Hour))}
		a.OnBinClose(bin, nil, &cd)
	}
	big := t0.Add(9 * time.Hour)
	for k := 0; k < 200; k++ {
		a.OnDelayAlarm(mkDelayAlarm(big, "10.1.0.1", fmt.Sprintf("10.2.0.%d", k+1), 5))
	}
	closeAt(big, rows(t0, big.Add(time.Hour)))
	if c := cap(pub.rec.Mag); c < 1000 {
		t.Fatalf("the backfill close left %d magnitude rows of capacity: the test is vacuous", c)
	}
	var mag0 *segstore.SeriesRow
	for i := 1; i <= 10; i++ {
		bin := big.Add(time.Duration(i) * time.Hour)
		closeAt(bin, rows(bin, bin.Add(time.Hour)))
		r := &pub.rec
		for _, s := range []struct {
			what      string
			cap, need int
		}{
			{"delay", cap(r.Delay), 0}, {"forwarding", cap(r.Fwd), 0}, {"events", cap(r.Events), 0},
			{"magnitude", cap(r.Mag), ases}, {"raw", cap(r.Raw), ases},
		} {
			if s.cap > max(4*s.need, 64) {
				t.Errorf("quiet close %d: the %s rows keep %d of capacity, a quiet close needs %d", i, s.what, s.cap, s.need)
			}
		}
		if i > 2 && unsafe.SliceData(r.Mag) != mag0 {
			t.Errorf("quiet close %d reallocated the magnitude rows a quiet close fits", i)
		}
		mag0 = unsafe.SliceData(r.Mag)
	}
	if got := pub.Snapshot().Seq; got != 12 {
		t.Fatalf("seq %d after eleven closes, want 12", got)
	}
	if st.Len() != 11 {
		t.Fatalf("the store holds %d of 11 closes", st.Len())
	}
}
