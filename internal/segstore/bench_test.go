package segstore

import (
	"testing"
	"time"
)

// benchRecord is a realistically sized closed bin: a few alarms, a few
// events, and per-AS magnitude/raw rows for ~64 ASes.
func benchRecord(i int) *BinRecord {
	bin := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Hour)
	rec := &BinRecord{
		Bin:      bin,
		FirstBin: time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC),
		Results:  int64(200_000 * (i + 1)),
	}
	for j := 0; j < 8; j++ {
		rec.Delay = append(rec.Delay, DelayRow{
			Bin: bin, Link: "198.51.100.17-198.51.100.33",
			MedianMS: 42.5, RefMS: 30.25, ShiftMS: 12.25, Deviation: 14.5,
			Probes: 120, ASes: 3,
		})
	}
	for j := 0; j < 2; j++ {
		rec.Fwd = append(rec.Fwd, FwdRow{
			Bin: bin, Router: "192.0.2.129", Dst: "203.0.113.0",
			TopHop: "198.51.100.65", Rho: -0.62, TopR: 0.9,
		})
	}
	rec.Events = append(rec.Events, EventRow{Bin: bin, ASN: 64500, Type: 0, Magnitude: 18.25})
	for a := 0; a < 64; a++ {
		rec.Mag = append(rec.Mag, SeriesRow{Bin: bin, ASN: uint32(64500 + a), Family: uint8(a % 2), V: 1.5})
		rec.Raw = append(rec.Raw, SeriesRow{Bin: bin, ASN: uint32(64500 + a), Family: uint8(a % 2), V: 3.25})
	}
	return rec
}

// BenchmarkSegmentCommit measures one full crash-safe commit (encode the
// frame — entry and payload — one write, one fsync) on the real os-backed
// store. The fsync dominates — this is the floor a per-bin commit adds to
// bin close. CI gates its allocs/op at 0: the frame is built in the
// store's reused buffer.
func BenchmarkSegmentCommit(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := benchRecord(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		rec.Bin = time.Unix(int64(i+1)*3600, 0).UTC()
		if err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootRecovery measures a cold open of a month-scale store (720
// hourly bins): one sequential walk over the frames checksumming every
// entry and payload, and a full decode of every segment — the whole
// restart read path.
func BenchmarkBootRecovery(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	const bins = 720
	for i := 0; i < bins; i++ {
		if err := st.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		st, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != bins {
			b.Fatalf("recovered %d bins", st.Len())
		}
		var rec BinRecord
		for i := 0; i < bins; i++ {
			if err := st.Record(i, &rec); err != nil {
				b.Fatal(err)
			}
		}
		st.Close()
	}
}
