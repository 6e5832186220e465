package timeseries

import (
	"math"
	"testing"
	"time"

	"pinpoint/internal/stats"
)

func TestMagnitudeSinceSpanStart(t *testing.T) {
	s := New(time.Hour)
	// The series' first written point is the event itself — with a span
	// start a week earlier, the window behind it is dense zeros and the
	// event scores high; with the series' own (event-time) span it scores
	// zero.
	eventT := t0.Add(7 * 24 * time.Hour)
	s.Add(eventT, 50)

	own := s.Magnitude(eventT, eventT.Add(time.Hour), 7*24*time.Hour)
	if len(own) != 1 || own[0].V != 0 {
		t.Errorf("own-span magnitude = %+v, want 0 (single-point window)", own)
	}

	since := s.MagnitudeSince(t0, eventT, eventT.Add(time.Hour), 7*24*time.Hour)
	if len(since) != 1 || since[0].V < 25 {
		t.Errorf("span-start magnitude = %+v, want large", since)
	}
}

func TestMagnitudeSinceWindowClamp(t *testing.T) {
	s := New(time.Hour)
	for i := 0; i < 48; i++ {
		s.Add(t0.Add(time.Duration(i)*time.Hour), 1)
	}
	// Span start after the data begins: window must not reach before it.
	spanStart := t0.Add(24 * time.Hour)
	pts := s.MagnitudeSince(spanStart, t0.Add(30*time.Hour), t0.Add(31*time.Hour), 7*24*time.Hour)
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	// Window = bins 24..30, all value 1 → magnitude 0.
	if pts[0].V != 0 {
		t.Errorf("magnitude = %v, want 0 over constant clamped window", pts[0].V)
	}
}

// Len returns the number of written bins.
func (s *Series) Len() int { return s.n }

// Span returns the first and last written bins, or ok=false for an empty
// series.
func (s *Series) Span() (first, last time.Time, ok bool) {
	if len(s.vals) == 0 {
		return time.Time{}, time.Time{}, false
	}
	return s.start, s.start.Add(time.Duration(len(s.vals)-1) * s.binSize), true
}

// Magnitude is MagnitudeSince with the series' own first bin as span start,
// or from's bin for an empty series.
func (s *Series) Magnitude(from, to time.Time, window time.Duration) []Point {
	first, _, haveSpan := s.Span()
	if !haveSpan {
		first = Bin(from, s.binSize)
	}
	return s.MagnitudeSince(first, from, to, window)
}

// MagnitudeSince is the Eq 10 oracle of a whole range: MagnitudeAt over
// every bin of [from, to), each evaluated on its own from the raw column.
// Bins before from still contribute to windows.
func (s *Series) MagnitudeSince(spanStart, from, to time.Time, window time.Duration) []Point {
	from = Bin(from, s.binSize)
	to = Bin(to, s.binSize)
	var out []Point
	var sc Scratch
	for t := from; t.Before(to); t = t.Add(s.binSize) {
		out = append(out, Point{T: t, V: s.MagnitudeAt(spanStart, t, window, &sc)})
	}
	return out
}

// dense is the window as the map-backed series built it before the column:
// one Value lookup per bin of [from, to), zero where none was written.
func dense(s *Series, from, to time.Time) []Point {
	var out []Point
	for t := Bin(from, s.binSize); t.Before(Bin(to, s.binSize)); t = t.Add(s.binSize) {
		v, _ := s.Value(t)
		out = append(out, Point{T: t, V: v})
	}
	return out
}

// magnitudeOracle is Eq 10 as it was computed before MagnitudeAt: the
// clamped window through dense, then stats.Magnitude on a copy.
func magnitudeOracle(s *Series, spanStart, t time.Time, window time.Duration) float64 {
	from := t.Add(-window).Add(s.binSize)
	if spanStart = Bin(spanStart, s.binSize); from.Before(spanStart) {
		from = spanStart
	}
	x, _ := s.Value(t)
	return stats.Magnitude(x, Values(dense(s, from, t.Add(s.binSize))))
}

// FuzzMagnitudeWindow pins MagnitudeAt, bit for bit, to magnitudeOracle on
// arbitrary series: writes in any bin order (the column grows at both
// ends), repeated bins, written zeros beside unwritten bins, negative sums
// (forwarding responsibilities), window lengths of 1 to 200 bins (odd and
// even windows, the midpoint median), span starts before, inside and after
// the data (the clamp, and the empty window's NaN), and a copy of the series
// evicted up to the horizon its windows still respect. It also checks that
// Points, Len and Span keep a written zero and skip an unwritten bin.
//
// Input: data[0] sets the window, data[1] the span start and data[2] the
// eviction horizon, as bin offsets; each following pair is one Add, at bin
// offset int8(b0) of value int8(b1)/4 (ties, zeros and signs are common).
func FuzzMagnitudeWindow(f *testing.F) {
	f.Add([]byte{167, 0, 0, 0, 40, 1, 4, 5, 0})
	f.Add([]byte{6, 250, 3, 10, 8, 12, 0xf0, 12, 12, 0xfb, 3})
	f.Add([]byte{1, 128, 130, 0x80, 1, 0x7f, 0xff, 0, 0})
	week := []byte{167, 0, 100}
	for i := 0; i < 120; i++ {
		week = append(week, byte(i), byte(i%5))
	}
	f.Add(append(week, 126, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		at := func(off int) time.Time { return t0.Add(time.Duration(off) * time.Hour) }
		window := time.Duration(1+int(data[0])%200) * time.Hour
		spanStart := at(int(int8(data[1])))
		horizon := at(int(int8(data[2])))
		s, ev := New(time.Hour), New(time.Hour)
		sums := map[int]float64{}
		lo, hi := 0, 0
		for i := 3; i+1 < len(data); i += 2 {
			off, v := int(int8(data[i])), float64(int8(data[i+1]))/4
			s.Add(at(off), v)
			ev.Add(at(off), v)
			sums[off] += v
			lo, hi = min(lo, off), max(hi, off)
		}
		ev.EvictBefore(horizon)

		var pts []Point
		for off := lo; off <= hi; off++ {
			if v, ok := sums[off]; ok {
				pts = append(pts, Point{T: at(off), V: v})
			}
		}
		if got := s.Points(); len(got) != len(pts) || s.Len() != len(pts) {
			t.Fatalf("Points %v (Len %d), want %v", got, s.Len(), pts)
		} else {
			for i := range got {
				if !got[i].T.Equal(pts[i].T) || math.Float64bits(got[i].V) != math.Float64bits(pts[i].V) {
					t.Fatalf("Points %v, want %v", got, pts)
				}
			}
		}
		if first, last, ok := s.Span(); ok != (len(pts) > 0) || ok && (!first.Equal(pts[0].T) || !last.Equal(pts[len(pts)-1].T)) {
			t.Fatalf("Span %v..%v/%v, want %v", first, last, ok, pts)
		}

		var sc Scratch
		for off := lo - 3; off <= hi+3; off++ {
			bin := at(off)
			want := magnitudeOracle(s, spanStart, bin, window)
			if got := s.MagnitudeAt(spanStart, bin, window, &sc); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bin %+d, window %v, span start %v: MagnitudeAt = %v, oracle %v", off, window, spanStart, got, want)
			}
			// The evicted copy answers every window the horizon leaves
			// whole, as if nothing were evicted.
			if from := bin.Add(-window).Add(time.Hour); from.Before(horizon) && spanStart.Before(horizon) {
				continue
			}
			if got := ev.MagnitudeAt(spanStart, bin, window, &sc); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bin %+d, window %v, span start %v, evicted before %v: MagnitudeAt = %v, oracle %v", off, window, spanStart, horizon, got, want)
			}
		}
	})
}
