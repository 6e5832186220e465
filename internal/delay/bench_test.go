package delay

import (
	"math/rand/v2"
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
// detector re-ingests one pre-recorded per-bin log and closes the bin,
// exercising the grouping of records by link, the column rebuild, the radix
// close order, probe grouping, diversity filtering, and the selection
// kernel with every scratch buffer warm.
// The batch is alarm-free by construction (identical distribution every
// bin), so this is the detector's quiet-network floor — it must run with
// 0 allocs/op.
func BenchmarkBinClose(b *testing.B) {
	d := NewDetector(Config{Seed: 1}, testASN)
	rng := rand.New(rand.NewPCG(3, 3))
	in := ident.NewInterner(d.Registry())
	var batch Log
	var rec Recorder
	for p := 1; p <= 60; p++ {
		r := mkResult(p, t0, 5, 7, rng)
		asn, _ := testASN(p)
		rec.Begin(int32(p), asn)
		ExtractView(in, in.ScratchView(&r), func(link ident.LinkID, near float64, far []float64) {
			rec.Record(&batch, link, near, far)
		})
	}
	samples := 0
	for _, r := range batch.recs {
		samples += int(r.far) * int(r.near)
	}
	bin := t0
	run := func() []Alarm {
		d.BeginBin(bin)
		d.IngestLog(&batch)
		bin = bin.Add(time.Hour)
		return d.Flush()
	}
	for i := 0; i < 4; i++ {
		run() // warm the reference and every scratch buffer
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
