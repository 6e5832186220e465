package delay

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"pinpoint/internal/ident"
	"pinpoint/internal/stats"
	"pinpoint/internal/trace"
)

// BenchmarkObserve measures per-result ingestion through Observe,
// building each trace.Result in the loop: its allocations per op are the
// Result's, not the detector's (BenchmarkObserveView is the gated path).
func BenchmarkObserve(b *testing.B) {
	d := NewDetector(Config{Seed: 1}, testASN)
	rng := rand.New(rand.NewPCG(1, 1))
	results := make([]int, 64)
	for i := range results {
		results[i] = i%30 + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prb := results[i%len(results)]
		d.Observe(mkResult(prb, t0.Add(time.Duration(i/1000)*time.Hour), 5, 7, rng))
	}
}

// BenchmarkCloseBin measures one full bin evaluation (diversity filter,
// Wilson characterization, reference update) for a well-observed link.
func BenchmarkCloseBin(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := NewDetector(Config{Seed: 1}, testASN)
		for p := 1; p <= 60; p++ {
			d.Observe(mkResult(p, t0, 5, 7, rng))
		}
		b.StartTimer()
		d.Flush()
	}
}

// BenchmarkObserveView measures steady-state ingestion: pre-built views of
// 30 probes cycle through hourly bins, each 300 results long, so an op is
// one result's extraction into the open bin's log plus its share of the
// closes. The distribution never changes, so no bin alarms and no Result is
// built: it must run with 0 allocs/op.
func BenchmarkObserveView(b *testing.B) {
	d := NewDetector(Config{Seed: 1}, testASN)
	rng := rand.New(rand.NewPCG(1, 1))
	views := make([]trace.View, 30)
	for i := range views {
		r := mkResult(i+1, t0, 5, 7, rng)
		d.intern.View(&r, &views[i])
	}
	i := 0
	observe := func() {
		v := &views[i%len(views)]
		v.Time = t0.Add(time.Duration(i/300) * time.Hour)
		if alarms := d.ObserveView(v); len(alarms) != 0 {
			b.Fatalf("steady-state views raised %d alarms", len(alarms))
		}
		i++
	}
	for i < 4*300 {
		observe() // warm the log, the slots and every close scratch buffer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		observe()
	}
}

// BenchmarkBinClose measures steady-state bin evaluation: a warmed
// detector re-ingests one pre-recorded per-bin log over a shared column (a
// sharded engine shard's path) and closes the bin, exercising the chaining
// of records by link, the close order, §4.3's counts, the column rebuild
// and the selection kernel with every scratch buffer warm. The log is
// alarm-free by construction (identical distribution every bin) and drops
// no probe, so this is the detector's quiet-network floor — it must run
// with 0 allocs/op.
//
//   - link=1: one link-bin of 540 ∆s from 60 probes, one view each;
//   - ddos: shaped like a bin of the ddos case's full fixture — 180
//     link-bins, of which §4.3 rejects 100 (108 ∆s from 4 probes in one
//     or two ASes each, 29 % of the bin's ∆s) and evaluates 80 (108 to
//     540 ∆s); views of 200 probes from 20 ASes, each crossing several
//     links, so a link's records interleave with other links'; every probe
//     looks three times per bin, so it returns to its links after other
//     probes' views.
func BenchmarkBinClose(b *testing.B) {
	b.Run("link=1", func(b *testing.B) {
		rng := rand.New(rand.NewPCG(3, 3))
		var col Column
		var batch Log
		var rec Recorder
		d := NewDetector(Config{Seed: 1}, testASN)
		in := ident.NewInterner(d.Registry())
		for p := 1; p <= 60; p++ {
			r := mkResult(p, t0, 5, 7, rng)
			asn, _ := testASN(p)
			v := in.ScratchView(&r)
			rec.Begin(&col, v, asn)
			ExtractView(in, v, func(link ident.LinkID, i, j, k int) {
				rec.Record(&batch, link, i, j, k)
			})
		}
		benchBinClose(b, d, &col, &batch, 0)
	})
	b.Run("ddos", func(b *testing.B) {
		d := NewDetector(Config{Seed: 1}, testASN)
		col, batch := ddosBin(d.Registry())
		benchBinClose(b, d, col, batch, ddosRejected)
	})
}

// ddosRejected is how many link-bins of ddosBin §4.3 rejects.
const ddosRejected = 100

// ddosBin records BenchmarkBinClose's ddos-shaped bin over links of reg.
// Probe p+1 is in AS block p/10 (testASN).
func ddosBin(reg *ident.Registry) (*Column, *Log) {
	const nLinks, nProbes, rounds = 180, 200, 3
	in := ident.NewInterner(reg)
	links := make([]ident.LinkID, nLinks)
	crosses := make([][]int, nProbes) // the links each probe's views cross
	for l := range links {
		near := netip.AddrFrom4([4]byte{10, 1, byte(l), 1})
		far := netip.AddrFrom4([4]byte{10, 1, byte(l), 2})
		links[l] = in.Link(in.Addr(near), in.Addr(far))
		if l%9 >= 4 { // rejected: 4 probes from one AS, or two for odd l
			for j := range 4 {
				as := l * 7 % 20
				if l%2 == 1 && j >= 2 {
					as = (as + 1) % 20
				}
				p := as*10 + (l+j)%10
				crosses[p] = append(crosses[p], l)
			}
			continue
		}
		k := l/9*4 + l%9            // the link's rank among the 80 evaluated
		for j := range 4 + k*7%17 { // 4 to 20 probes: 108 to 540 ∆s
			p := (k*37 + j*23) % nProbes
			crosses[p] = append(crosses[p], l)
		}
	}
	rng := rand.New(rand.NewPCG(4, 4))
	col, batch := new(Column), new(Log)
	var rec Recorder
	for range rounds {
		for _, p := range rng.Perm(nProbes) {
			if len(crosses[p]) == 0 {
				continue
			}
			// Three near and three far replies per link crossed.
			v := trace.View{Prb: p + 1}
			for _, l := range crosses[p] {
				base := 5 + float64(l%9)
				for range 3 {
					v.RTT = append(v.RTT, base+rng.Float64())
				}
				for range 3 {
					v.RTT = append(v.RTT, base+2+rng.Float64())
				}
			}
			asn, _ := testASN(v.Prb)
			rec.Begin(col, &v, asn)
			for h, l := range crosses[p] {
				for i := range 3 {
					rec.Record(batch, links[l], 6*h+i, 6*h+3, 6*h+6)
				}
			}
		}
	}
	return col, batch
}

// benchBinClose times d closing bins of batch over col, of which §4.3
// rejects rejected link-bins per bin.
func benchBinClose(b *testing.B, d *Detector, col *Column, batch *Log, rejected int) {
	d.ShareColumn(col)
	samples := 0
	for _, r := range batch.recs {
		samples += int(r.nFar) * int(r.nNear)
	}
	bin := t0
	run := func() []Alarm {
		d.BeginBin(bin)
		d.IngestLog(batch)
		bin = bin.Add(time.Hour)
		return d.Flush()
	}
	for i := 0; i < 4; i++ {
		run() // warm the reference and every scratch buffer
	}
	if cs := d.CloseStats(); cs.Dropped != 0 || cs.Rejected != rejected*cs.Bins || cs.Links == 0 {
		b.Fatalf("fixture closed %d link-bins in %d bins, %d dropped probes, %d rejected: want no drop and %d rejected per bin",
			cs.Links, cs.Bins, cs.Dropped, cs.Rejected, rejected)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alarms := run(); len(alarms) != 0 {
			b.Fatalf("steady-state fixture emitted %d alarms", len(alarms))
		}
	}
	b.ReportMetric(float64(samples*b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkDeviation(b *testing.B) {
	ref := stats.MedianCI{Median: 5, Lower: 4, Upper: 6, N: 100}
	cur := stats.MedianCI{Median: 10, Lower: 9, Upper: 11, N: 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Deviation(cur, ref)
	}
}
