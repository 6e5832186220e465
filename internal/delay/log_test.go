package delay

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"pinpoint/internal/hash"
	"pinpoint/internal/ident"
	"pinpoint/internal/trace"
)

// TestShardLogsMatchOneLog is the log's representation invariant: routing
// every callback of the extraction corpus to the log of its link's shard
// (the engine's rule), at W = 2, 3 and 4, yields in total the records and
// RTTs of one detector's own log, and every rebuilt ∆ column and probe run
// list is the one that detector rebuilds.
func TestShardLogsMatchOneLog(t *testing.T) {
	rs, probeASN := extractCorpus(t)
	reg := ident.NewRegistry()
	in := ident.NewInterner(reg)
	views := make([]trace.View, len(rs))
	for i := range rs {
		in.View(&rs[i], &views[i])
	}
	cfg := Config{BinSize: 24 * time.Hour, Registry: reg} // one bin holds the corpus

	one := NewDetector(cfg, probeASN)
	for i := range views {
		one.ObserveView(&views[i])
	}
	wantRecs, wantVals := one.log.Len()
	want := openBins(one)
	if wantRecs == 0 || len(want) < 100 {
		t.Fatalf("corpus filled %d records on %d links", wantRecs, len(want))
	}
	merged := 0
	for _, r := range one.log.recs {
		merged += int(r.near) - 1
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

	for w := 2; w <= 4; w++ {
		logs := make([]Log, w)
		var rec Recorder
		for i := range views {
			asn, ok := probeASN(views[i].Prb)
			if !ok {
				continue
			}
			rec.Begin(int32(views[i].Prb), asn)
			ExtractView(in, &views[i], func(link ident.LinkID, near float64, far []float64) {
				rec.Record(&logs[hash.Mix64(uint64(link), 0x1d)%uint64(w)], link, near, far)
			})
		}
		recs, vals := 0, 0
		got := map[trace.LinkKey]linkBin{}
		for i := range logs {
			r, v := logs[i].Len()
			recs, vals = recs+r, vals+v
			shard := NewDetector(cfg, probeASN)
			shard.IngestLog(&logs[i])
			for k, lb := range openBins(shard) {
				got[k] = lb
			}
		}
		if recs != wantRecs || vals != wantVals {
			t.Errorf("W=%d: shard logs hold %d records over %d RTTs, one log %d over %d", w, recs, vals, wantRecs, wantVals)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("W=%d: rebuilt link-bins differ from one log's (%d links against %d)", w, len(got), len(want))
		}
	}
}

// TestRecorderMergeRule: only the next near RTT of the previous callback's
// link and far stretch joins its record. A far stretch too long for one
// record splits into records no later near RTT joins, and the column stays
// far − near, near-major.
func TestRecorderMergeRule(t *testing.T) {
	var l Log
	var r Recorder
	far := []float64{10, 11, 20}
	r.Begin(1, 101)
	r.Record(&l, 7, 1, far[:2])
	r.Record(&l, 8, 1, far[2:]) // another far responder: a second link
	r.Record(&l, 7, 2, far[:2]) // the previous callback was link 8's
	r.Record(&l, 7, 3, far[:2]) // joins
	r.Begin(2, 102)
	r.Record(&l, 7, 4, far[:2]) // a new view never joins
	if recs, vals := l.Len(); recs != 4 || vals != 12 {
		t.Fatalf("log holds %d records over %d RTTs, want 4 over 12", recs, vals)
	}
	if got := l.recs[2]; got.near != 2 || got.probe != 1 || l.vals[got.off+2] != 2 || l.vals[got.off+3] != 3 {
		t.Errorf("merged record = %+v", got)
	}

	long := make([]float64, math.MaxUint16+2)
	for i := range long {
		long[i] = float64(i)
	}
	d := NewDetector(Config{}, testASN)
	link := d.intern.Link(d.intern.Addr(nearA), d.intern.Addr(farB))
	l.Reset()
	r.Begin(3, 103)
	r.Record(&l, link, 0.5, long)
	r.Record(&l, link, 0.25, long)
	if recs, _ := l.Len(); recs != 4 {
		t.Fatalf("two callbacks of a %d-RTT stretch made %d records, want 4", len(long), recs)
	}
	slot := d.slot(link)
	d.IngestLog(&l)
	slots, ends, ord := d.groupLog()
	if len(slots) != 1 || slots[0] != slot {
		t.Fatalf("grouped links %v, want [%d]", slots, slot)
	}
	col, runs := d.column(ord[:ends[0]])
	var want []float64
	for _, near := range []float64{0.5, 0.25} {
		for _, f := range long {
			want = append(want, f-near)
		}
	}
	if !slices.Equal(col, want) {
		t.Error("chunked stretch rebuilt a different ∆ column")
	}
	if len(runs) != 1 || runs[0] != (probeRun{probe: 3, asn: 103, start: 0, end: int32(len(want))}) {
		t.Errorf("runs = %+v, want one run of probe 3", runs)
	}
}

// TestLogRetainsNoPeakSlack bounds the open bin's retained state: after
// bins of varying size, the log's capacity is at most 1.25× the largest
// bin's need, and the per-link slots hold no sample buffer at all.
func TestLogRetainsNoPeakSlack(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, testASN)
	var v trace.View
	maxRecs, maxVals := 0, 0
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
		recs, vals := d.log.Len()
		maxRecs, maxVals = max(maxRecs, recs), max(maxVals, vals)
	}
	if c := cap(d.log.recs); float64(c) > 1.25*float64(maxRecs) {
		t.Errorf("record capacity %d for a largest bin of %d", c, maxRecs)
	}
	if c := cap(d.log.vals); float64(c) > 1.25*float64(maxVals) {
		t.Errorf("RTT capacity %d for a largest bin of %d", c, maxVals)
	}
	for i := range reflect.TypeOf(linkState{}).NumField() {
		f := reflect.TypeOf(linkState{}).Field(i)
		switch f.Type.Kind() {
		case reflect.Slice, reflect.Map, reflect.Pointer:
			t.Errorf("linkState.%s is a %s: slots must not hold sample buffers", f.Name, f.Type.Kind())
		}
	}
}
