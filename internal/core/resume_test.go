package core

import (
	"testing"
	"time"

	"pinpoint/internal/events"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/trace"
)

// TestResumeCursorSuppressesDurableCloses pins the warmup-replay
// mechanics on both backends: with a resume cursor at bin k, replaying
// the stream from the start still counts every result, but OnBinClose
// fires only for bins at or after the cursor — durable bins are
// rebuilt silently. (Alarm-level suppression and byte-identity of the
// restored read model are covered end-to-end by internal/serve's
// restart golden test.)
func TestResumeCursorSuppressesDurableCloses(t *testing.T) {
	start := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	noASN := func(int) (ipmap.ASN, bool) { return 0, false }
	for _, workers := range []int{1, 3} {
		const bins, cursor = 6, 3
		a := New(Config{Workers: workers}, noASN, &ipmap.Table{})
		a.SetResumeCursor(start.Add(cursor * time.Hour))
		var closes []time.Time
		a.OnBinClose = func(bin time.Time, _ []events.Event, _ *events.CloseDelta) { closes = append(closes, bin) }

		var rs []trace.Result
		for i := 0; i < bins; i++ {
			rs = append(rs, trace.Result{Time: start.Add(time.Duration(i) * time.Hour)})
		}
		a.ObserveBatch(rs)
		a.Flush()
		a.Close()

		if a.Results() != bins {
			t.Fatalf("workers=%d: warmup results not counted: %d", workers, a.Results())
		}
		want := bins - cursor // bins cursor..bins-1
		if len(closes) != want {
			t.Fatalf("workers=%d: %d closes fired (%v), want %d", workers, len(closes), closes, want)
		}
		for i, bin := range closes {
			if exp := start.Add(time.Duration(cursor+i) * time.Hour); !bin.Equal(exp) {
				t.Fatalf("workers=%d: close %d = %v, want %v", workers, i, bin, exp)
			}
		}
	}
}
