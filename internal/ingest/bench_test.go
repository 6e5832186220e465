package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"pinpoint/internal/ident"
	"pinpoint/internal/trace"
)

var (
	benchOnce sync.Once
	benchDump []byte
	benchN    int
)

// benchFixture encodes a synthetic 16k-result NDJSON dump once; every
// benchmark iteration decodes the whole dump from one file, which the page
// cache holds after the first pass, so ns/op and MB/s measure the decode
// pipeline alone (no analysis).
func benchFixture(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		rs := makeResults(16384)
		benchN = len(rs)
		var buf bytes.Buffer
		for _, r := range rs {
			line, err := json.Marshal(r)
			if err != nil {
				panic(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		benchDump = buf.Bytes()
	})
}

// BenchmarkIngest replays the fixture dump through FilesViews, the target
// production runs (core.Analyzer.RunFiles), with 1/2/4/8 workers, interning
// into one registry that the first pass warms. The delivered stream is
// bit-identical across rows (TestDecodeWorkerEquivalence), so rows differ
// only in wall time; on a single-core host the parallel rows measure pure
// coordination overhead, not speedup.
func BenchmarkIngest(b *testing.B) {
	benchFixture(b)
	path := dumpFiles(b, benchDump)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			reg := ident.NewRegistry()
			b.ReportAllocs()
			b.SetBytes(int64(len(benchDump)))
			for i := 0; i < b.N; i++ {
				st, err := FilesViews(context.Background(), path,
					Options{Workers: workers}, reg, func([]trace.View) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				if st.Results != benchN {
					b.Fatalf("decoded %d results, want %d", st.Results, benchN)
				}
			}
			perOp := b.Elapsed().Seconds() / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(benchN)/perOp, "results/s")
			}
		})
	}
}
