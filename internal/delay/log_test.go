package delay

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"pinpoint/internal/hash"
	"pinpoint/internal/ident"
	"pinpoint/internal/trace"
)

// TestShardLogsMatchOneLog is the open bin's representation invariant.
// Routing every callback of the extraction corpus to the log of its link's
// shard (the engine's rule), at W = 1 to 4, over one column that every
// shard detector shares, yields in total one detector's records; the column
// holds the RTTs of every contributing view exactly once, and no shard holds
// an RTT of its own; every rebuilt ∆ column and probe run list is the one
// that detector rebuilds, and that detector's ∆ columns are ExtractSamples'.
func TestShardLogsMatchOneLog(t *testing.T) {
	rs, probeASN := extractCorpus(t)
	reg := ident.NewRegistry()
	in := ident.NewInterner(reg)
	views := make([]trace.View, len(rs))
	wantRTTs, wantViews := 0, 0
	for i := range rs {
		v := &views[i]
		in.View(&rs[i], v)
		contributes := false
		if _, ok := probeASN(v.Prb); ok {
			ExtractView(in, v, func(ident.LinkID, int, int, int) { contributes = true })
		}
		if contributes {
			wantRTTs, wantViews = wantRTTs+len(v.RTT), wantViews+1
		}
	}
	cfg := Config{BinSize: 24 * time.Hour, Registry: reg} // one bin holds the corpus

	one := NewDetector(cfg, probeASN)
	for i := range views {
		one.ObserveView(&views[i])
	}
	wantRecs := one.log.Len()
	if rtts, heads := len(one.col.rtts), len(one.col.heads); rtts != wantRTTs || heads != wantViews {
		t.Errorf("one detector's column holds %d RTTs of %d views, want %d of %d", rtts, heads, wantRTTs, wantViews)
	}
	want := openBins(one)
	if wantRecs == 0 || len(want) < 100 || wantViews == len(views) {
		t.Fatalf("corpus filled %d records on %d links from %d of %d views", wantRecs, len(want), wantViews, len(views))
	}
	merged := 0
	for _, r := range one.log.recs {
		merged += int(r.nNear) - 1
	}
	if merged == 0 {
		t.Fatal("no record took a second near RTT: the merge rule never ran")
	}
	// Each rebuilt column is the link's ∆s in extraction order.
	deltas := map[trace.LinkKey][]float64{}
	for i := range rs {
		ExtractSamples(in, rs[i], probeASN, func(s Sample) {
			k := reg.LinkKeyOf(s.Link)
			deltas[k] = append(deltas[k], s.Delta)
		})
	}
	if len(deltas) != len(want) {
		t.Errorf("one log rebuilt %d link-bins, extraction yields %d links", len(want), len(deltas))
	}
	for k, lb := range want {
		if !slices.Equal(lb.col, deltas[k]) {
			t.Errorf("%v: rebuilt column %v, extracted ∆s %v", k, lb.col, deltas[k])
		}
	}

	for w := 1; w <= 4; w++ {
		var col Column
		logs := make([]Log, w)
		var rec Recorder
		for i := range views {
			asn, ok := probeASN(views[i].Prb)
			if !ok {
				continue
			}
			rec.Begin(&col, &views[i], asn)
			ExtractView(in, &views[i], func(link ident.LinkID, i, j, k int) {
				rec.Record(&logs[hash.Mix64(uint64(link), 0x1d)%uint64(w)], link, i, j, k)
			})
		}
		if rtts, heads := len(col.rtts), len(col.heads); rtts != wantRTTs || heads != wantViews {
			t.Errorf("W=%d: shared column holds %d RTTs of %d views, want %d of %d", w, rtts, heads, wantRTTs, wantViews)
		}
		recs := 0
		got := map[trace.LinkKey]linkBin{}
		for i := range logs {
			recs += logs[i].Len()
			shard := NewDetector(cfg, probeASN)
			shard.ShareColumn(&col)
			shard.IngestLog(&logs[i])
			if cap(shard.own.rtts) != 0 || cap(shard.own.heads) != 0 {
				t.Errorf("W=%d: shard %d holds RTTs of its own", w, i)
			}
			for k, lb := range openBins(shard) {
				got[k] = lb
			}
		}
		if recs != wantRecs {
			t.Errorf("W=%d: shard logs hold %d records, one log %d", w, recs, wantRecs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("W=%d: rebuilt link-bins differ from one log's (%d links against %d)", w, len(got), len(want))
		}
	}
}

// TestRecorderMergeRule: only the next near reply of the previous
// callback's link and far stretch joins its record; a view that yields no
// record leaves the column as it was; a far stretch too long for one record
// splits into records no later near reply joins. The rebuilt column stays
// far − near, near-major, throughout.
func TestRecorderMergeRule(t *testing.T) {
	d := NewDetector(Config{}, testASN)
	// A, timeout, A against one far stretch: the timeout splits the record,
	// the view's RTTs join the column once.
	r := trace.Result{PrbID: 1, Time: t0, Hops: []trace.Hop{
		{Index: 1, Replies: []trace.Reply{{From: nearA, RTT: 5}, {Timeout: true}, {From: nearA, RTT: 5.5}}},
		{Index: 2, Replies: []trace.Reply{{From: farB, RTT: 7}, {From: farB, RTT: 7.25}}},
	}}
	d.Observe(r)
	if recs, rtts := d.log.Len(), len(d.col.rtts); recs != 2 || rtts != 5 {
		t.Fatalf("A, timeout, A: %d records over %d RTTs, want 2 over the view's 5", recs, rtts)
	}
	lb := openBins(d)[trace.LinkKey{Near: nearA, Far: farB}]
	if want := []float64{2, 2.25, 1.5, 1.75}; !slices.Equal(lb.col, want) {
		t.Errorf("rebuilt column %v, want %v", lb.col, want)
	}
	if len(lb.runs) != 1 || lb.runs[0] != (probeRun{probe: 1, asn: 101, start: 0, end: 4}) {
		t.Errorf("runs = %+v, want one run of probe 1", lb.runs)
	}

	// A view with no link: no record, no RTT, no header.
	r = trace.Result{PrbID: 2, Time: t0, Hops: []trace.Hop{
		{Index: 1, Replies: []trace.Reply{{From: nearA, RTT: 5}, {Timeout: true}}},
		{Index: 2, Replies: []trace.Reply{{Timeout: true}, {From: nearA, RTT: 6}}},
	}}
	d.Observe(r)
	if recs, heads := d.log.Len(), len(d.col.heads); recs != 2 || len(d.col.rtts) != 5 || heads != 1 {
		t.Errorf("a view with no link left %d records, %d RTTs, %d headers; want 2, 5, 1", recs, len(d.col.rtts), heads)
	}

	// The callback sequence decides, not the log: the previous callback of
	// another link, or of another view, keeps a record from growing.
	var col Column
	var l Log
	var rec Recorder
	v := trace.View{Prb: 1, RTT: []float64{1, 2, 3, 10, 11, 20}}
	rec.Begin(&col, &v, 101)
	rec.Record(&l, 7, 0, 3, 5)
	rec.Record(&l, 8, 0, 5, 6) // another far responder: a second link
	rec.Record(&l, 7, 1, 3, 5) // the previous callback was link 8's
	rec.Record(&l, 7, 2, 3, 5) // joins
	rec.Begin(&col, &v, 102)
	rec.Record(&l, 7, 0, 3, 5) // a new view never joins
	if recs, heads := l.Len(), len(col.heads); recs != 4 || heads != 2 || len(col.rtts) != 12 {
		t.Fatalf("log holds %d records, column %d RTTs of %d views; want 4, 12, 2", recs, len(col.rtts), heads)
	}
	if got := l.recs[2]; got != (record{link: 7, view: 0, far: 3, near: 1, nFar: 2, nNear: 2}) {
		t.Errorf("merged record = %+v", got)
	}
	if got := l.recs[3]; got.view != 1 || got.far != 9 || got.near != 6 {
		t.Errorf("second view's record = %+v, want view 1 at offset 6", got)
	}

	// A far stretch longer than a record's count.
	long := make([]float64, 2+math.MaxUint16+2)
	for i := range long {
		long[i] = float64(i)
	}
	long[0], long[1] = 0.5, 0.25
	d = NewDetector(Config{}, testASN)
	link := d.intern.Link(d.intern.Addr(nearA), d.intern.Addr(farB))
	v = trace.View{Prb: 3, RTT: long}
	d.rec.Begin(d.col, &v, 103)
	d.rec.Record(&d.log, link, 0, 2, len(long))
	d.rec.Record(&d.log, link, 1, 2, len(long))
	d.chain() // as ObserveView does after a view's callbacks
	if recs := d.log.Len(); recs != 4 {
		t.Fatalf("two callbacks of a %d-RTT stretch made %d records, want 4", len(long)-2, recs)
	}
	lb = openBins(d)[trace.LinkKey{Near: nearA, Far: farB}]
	var want []float64
	for _, near := range long[:2] {
		for _, f := range long[2:] {
			want = append(want, f-near)
		}
	}
	if !slices.Equal(lb.col, want) {
		t.Error("chunked stretch rebuilt a different ∆ column")
	}
	if len(lb.runs) != 1 || lb.runs[0] != (probeRun{probe: 3, asn: 103, start: 0, end: int32(len(want))}) {
		t.Errorf("runs = %+v, want one run of probe 3", lb.runs)
	}
}

// TestLogRetainsNoPeakSlack bounds the open bin's retained state: a record
// is at most 20 bytes, and after bins of varying size the column's RTT and
// header capacities and the log's record and chain capacities are each at
// most 1.125× the largest bin's need; the per-link slots hold no sample
// buffer at all.
func TestLogRetainsNoPeakSlack(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 20 {
		t.Errorf("a record is %d bytes, want at most 20", n)
	}
	d := NewDetector(Config{Seed: 1}, testASN)
	var v trace.View
	maxRecs, maxRTTs, maxHeads := 0, 0, 0
	for bin, n := range []int{40, 700, 90, 2500, 1300, 10, 2499} {
		at := t0.Add(time.Duration(bin) * time.Hour)
		for i := 0; i < n; i++ {
			r := trace.Result{PrbID: i%30 + 1, Time: at, Hops: []trace.Hop{
				{Index: 1, Replies: []trace.Reply{{From: nearA, RTT: 5}, {From: nearA, RTT: 5.1}, {From: nearA, RTT: 5.2}}},
				{Index: 2, Replies: []trace.Reply{{From: farB, RTT: 7}, {From: farB, RTT: 7.1}}},
			}}
			d.intern.View(&r, &v)
			d.ObserveView(&v)
		}
		rtts, heads := len(d.col.rtts), len(d.col.heads)
		maxRecs, maxRTTs, maxHeads = max(maxRecs, d.log.Len()), max(maxRTTs, rtts), max(maxHeads, heads)
	}
	for _, c := range []struct {
		what      string
		cap, need int
	}{
		{"record", cap(d.log.recs), maxRecs},
		{"chain", cap(d.next), maxRecs},
		{"RTT", cap(d.col.rtts), maxRTTs},
		{"header", cap(d.col.heads), maxHeads},
	} {
		if float64(c.cap) > 1.125*float64(c.need) {
			t.Errorf("%s capacity %d for a largest bin of %d", c.what, c.cap, c.need)
		}
	}
	for i := range reflect.TypeOf(linkState{}).NumField() {
		f := reflect.TypeOf(linkState{}).Field(i)
		switch f.Type.Kind() {
		case reflect.Slice, reflect.Map, reflect.Pointer:
			t.Errorf("linkState.%s is a %s: slots must not hold sample buffers", f.Name, f.Type.Kind())
		}
	}
}
