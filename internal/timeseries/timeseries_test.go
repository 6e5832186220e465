package timeseries

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2015, 11, 30, 0, 0, 0, 0, time.UTC)

func TestBin(t *testing.T) {
	in := time.Date(2015, 11, 30, 7, 42, 13, 500, time.UTC)
	want := time.Date(2015, 11, 30, 7, 0, 0, 0, time.UTC)
	if got := Bin(in, time.Hour); !got.Equal(want) {
		t.Errorf("Bin = %v, want %v", got, want)
	}
	// Non-UTC input normalizes to UTC.
	loc := time.FixedZone("X", 3600)
	if got := Bin(in.In(loc), time.Hour); !got.Equal(want) {
		t.Errorf("Bin non-UTC = %v, want %v", got, want)
	}
}

// TestInBinMatchesBin pins the per-result fast path to the truncation it
// replaces: for a bin start, InBin(t) ⇔ Bin(t) is that start — at both
// edges, for late and far-off times (Sub saturates), other zones, the zero
// time and sub-second bins.
func TestInBinMatchesBin(t *testing.T) {
	loc := time.FixedZone("X", -5*3600)
	for _, size := range []time.Duration{time.Hour, 15 * time.Minute, 250 * time.Millisecond} {
		start := Bin(time.Date(2015, 11, 30, 7, 42, 13, 500, time.UTC), size)
		for _, off := range []time.Duration{
			-1000 * time.Hour, -size, -1, 0, 1, size / 2, size - 1, size, size + 1, 1000 * time.Hour,
		} {
			for _, at := range []time.Time{start.Add(off), start.Add(off).In(loc)} {
				if got, want := InBin(at, start, size), Bin(at, size).Equal(start); got != want {
					t.Errorf("InBin(start%+v, size %v) = %v, Bin says %v", off, size, got, want)
				}
			}
		}
		for _, at := range []time.Time{{}, time.Unix(1<<40, 0)} {
			if InBin(at, start, size) {
				t.Errorf("InBin(%v) = true for bin %v", at, start)
			}
		}
	}
}

func TestSeriesAddAccumulates(t *testing.T) {
	s := New(time.Hour)
	s.Add(t0.Add(10*time.Minute), 1.5)
	s.Add(t0.Add(50*time.Minute), 2.5)
	s.Add(t0.Add(70*time.Minute), 7)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if v, ok := s.Value(t0); !ok || v != 4 {
		t.Errorf("bin0 = %v/%v, want 4", v, ok)
	}
	if v, ok := s.Value(t0.Add(time.Hour)); !ok || v != 7 {
		t.Errorf("bin1 = %v/%v, want 7", v, ok)
	}
	if _, ok := s.Value(t0.Add(5 * time.Hour)); ok {
		t.Error("unwritten bin should not exist")
	}
}

func TestSeriesSet(t *testing.T) {
	s := New(time.Hour)
	s.Set(t0, 5)
	s.Set(t0.Add(time.Minute), 9)
	if v, _ := s.Value(t0); v != 9 {
		t.Errorf("Set should replace, got %v", v)
	}
}

func TestPointsSorted(t *testing.T) {
	s := New(time.Hour)
	s.Add(t0.Add(3*time.Hour), 3)
	s.Add(t0, 1)
	s.Add(t0.Add(time.Hour), 2)
	pts := s.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].T.Before(pts[i-1].T) {
			t.Fatalf("Points not chronological: %v", pts)
		}
	}
}

func TestDense(t *testing.T) {
	s := New(time.Hour)
	s.Add(t0.Add(2*time.Hour), 5)
	pts := s.Dense(t0, t0.Add(4*time.Hour))
	if len(pts) != 4 {
		t.Fatalf("Dense len = %d, want 4", len(pts))
	}
	want := []float64{0, 0, 5, 0}
	for i, p := range pts {
		if p.V != want[i] {
			t.Errorf("Dense[%d] = %v, want %v", i, p.V, want[i])
		}
	}
}

func TestSpan(t *testing.T) {
	s := New(time.Hour)
	if _, _, ok := s.Span(); ok {
		t.Error("empty Span should be !ok")
	}
	s.Add(t0.Add(5*time.Hour), 1)
	s.Add(t0, 1)
	first, last, ok := s.Span()
	if !ok || !first.Equal(t0) || !last.Equal(t0.Add(5*time.Hour)) {
		t.Errorf("Span = %v..%v/%v", first, last, ok)
	}
}

func TestMagnitudeFlatSeriesIsZeroish(t *testing.T) {
	s := New(time.Hour)
	for i := 0; i < 24*7; i++ {
		s.Add(t0.Add(time.Duration(i)*time.Hour), 1)
	}
	mags := s.Magnitude(t0.Add(24*time.Hour), t0.Add(48*time.Hour), 7*24*time.Hour)
	for _, m := range mags {
		if math.Abs(m.V) > 1e-9 {
			t.Fatalf("flat series magnitude = %v at %v, want 0", m.V, m.T)
		}
	}
}

func TestMagnitudePeakDetection(t *testing.T) {
	s := New(time.Hour)
	// A quiet week with small background noise, then a huge spike.
	for i := 0; i < 24*7; i++ {
		s.Add(t0.Add(time.Duration(i)*time.Hour), float64(i%3))
	}
	spikeT := t0.Add(24 * 7 * time.Hour)
	s.Add(spikeT, 500)
	mags := s.Magnitude(spikeT, spikeT.Add(time.Hour), 7*24*time.Hour)
	if len(mags) != 1 {
		t.Fatalf("got %d magnitude points", len(mags))
	}
	if mags[0].V < 50 {
		t.Errorf("spike magnitude = %v, want large positive", mags[0].V)
	}
}

func TestMagnitudeNegativePeak(t *testing.T) {
	s := New(time.Hour)
	for i := 0; i < 24*7; i++ {
		s.Add(t0.Add(time.Duration(i)*time.Hour), 0)
	}
	dipT := t0.Add(24 * 7 * time.Hour)
	s.Add(dipT, -30) // e.g. sum of negative responsibility scores
	mags := s.Magnitude(dipT, dipT.Add(time.Hour), 7*24*time.Hour)
	if mags[0].V > -20 {
		t.Errorf("dip magnitude = %v, want strongly negative", mags[0].V)
	}
}

func TestMagnitudeQuietWeekDense(t *testing.T) {
	// A single alarm after a silent week must be scored against a dense
	// (mostly zero) window, not a one-point window.
	s := New(time.Hour)
	s.Add(t0, 0) // establish series start
	alarmT := t0.Add(7 * 24 * time.Hour)
	s.Add(alarmT, 10)
	mags := s.Magnitude(alarmT, alarmT.Add(time.Hour), 7*24*time.Hour)
	if mags[0].V < 5 {
		t.Errorf("magnitude = %v, want ≈ 10 (window median/MAD ≈ 0)", mags[0].V)
	}
}

func TestValuesAndExtremes(t *testing.T) {
	pts := []Point{{t0, 3}, {t0.Add(time.Hour), -5}, {t0.Add(2 * time.Hour), 8}}
	vs := Values(pts)
	if len(vs) != 3 || vs[1] != -5 {
		t.Errorf("Values = %v", vs)
	}
	mx, ok := MaxPoint(pts)
	if !ok || mx.V != 8 {
		t.Errorf("MaxPoint = %+v", mx)
	}
	mn, ok := MinPoint(pts)
	if !ok || mn.V != -5 {
		t.Errorf("MinPoint = %+v", mn)
	}
	if _, ok := MaxPoint(nil); ok {
		t.Error("MaxPoint(nil) should be !ok")
	}
	if _, ok := MinPoint(nil); ok {
		t.Error("MinPoint(nil) should be !ok")
	}
}
