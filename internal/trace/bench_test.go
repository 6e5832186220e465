package trace

import (
	"encoding/json"
	"testing"
)

func BenchmarkMarshal(b *testing.B) {
	r := sampleResult()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	data, err := json.Marshal(sampleResult())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendResult compares the fast encoder against json.Marshal.
func BenchmarkAppendResult(b *testing.B) {
	r := sampleResult()
	b.Run("fast", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = AppendResult(buf[:0], r)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAdjacentPairs(b *testing.B) {
	r := sampleResult()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.AdjacentPairs()
	}
}
