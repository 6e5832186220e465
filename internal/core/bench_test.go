package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pinpoint/internal/ingest"
	"pinpoint/internal/trace"
)

// BenchmarkRunFiles measures the full dump-replay path — NDJSON file on
// disk → chunked parallel decode → delay/forwarding detectors → event
// aggregation — per decode worker count. This is the end-to-end view of
// the BenchmarkIngest decode speedup: the same campaign the round-trip
// tests replay, written once to a plain NDJSON file. Its warm
// sub-benchmark is one replay pass of packedReplay's dump on one decode
// worker and the sequential backend; with -benchmem, allocs/op against
// results/op is the rate TestRunFilesAllocationsPerChunk bounds.
func BenchmarkRunFiles(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		pass := packedReplay(b)
		b.ReportAllocs()
		b.ResetTimer()
		results := 0
		for i := 0; i < b.N; i++ {
			results = pass().Results
		}
		b.ReportMetric(float64(results), "results/op")
	})

	p, _, _, _ := buildAttack(b)
	end := start.Add(72 * time.Hour) // covers the injected 48h..50h attack

	path := filepath.Join(b.TempDir(), "dump.ndjson")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	tw := trace.NewWriter(f)
	if err := p.Run(start, end, tw.Write); err != nil {
		b.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}

	cfg := Config{}
	cfg.Events.Window = 24 * time.Hour
	cfg.Events.Threshold = 3

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(fi.Size())
			var results int
			for i := 0; i < b.N; i++ {
				a := New(cfg, p.ProbeASN, p.Net().Prefixes())
				st, err := a.RunFiles(context.Background(), []string{path},
					ingest.Options{Workers: workers})
				a.Close()
				if err != nil {
					b.Fatal(err)
				}
				if st.Results == 0 {
					b.Fatal("no results decoded")
				}
				results = st.Results
			}
			if sec := b.Elapsed().Seconds() / float64(b.N); sec > 0 {
				b.ReportMetric(float64(results)/sec, "results/s")
			}
		})
	}
}
