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

// TestClock walks one clock through every case of the bin rule: the first
// time opens its bin, a time in the open bin or an earlier one folds into
// it, a later bin closes the open one, Close ends the stream and the next
// time reopens, and Begin only moves forward without reporting a close.
func TestClock(t *testing.T) {
	h := func(n float64) time.Time { return t0.Add(time.Duration(n * float64(time.Hour))) }
	const (
		advance = iota
		closeOp
		begin
	)
	steps := []struct {
		name    string
		op      int
		at      time.Time // Begin takes bin starts
		closed  time.Time // with ok
		ok      bool
		open    time.Time // with hasOpen, after the step
		hasOpen bool
	}{
		{name: "first time opens its bin", op: advance, at: h(2.5), open: h(2), hasOpen: true},
		{name: "in-bin", op: advance, at: h(2.99), open: h(2), hasOpen: true},
		{name: "earlier bin folds", op: advance, at: h(0.5), open: h(2), hasOpen: true},
		{name: "later bin closes", op: advance, at: h(3), closed: h(2), ok: true, open: h(3), hasOpen: true},
		{name: "skipped bins close only the open one", op: advance, at: h(7.25), closed: h(3), ok: true, open: h(7), hasOpen: true},
		{name: "close ends the stream", op: closeOp, closed: h(7), ok: true},
		{name: "close again is empty", op: closeOp},
		{name: "reopen after close, even earlier", op: advance, at: h(4.5), open: h(4), hasOpen: true},
		{name: "begin an earlier bin is ignored", op: begin, at: h(1), open: h(4), hasOpen: true},
		{name: "begin the open bin is ignored", op: begin, at: h(4), open: h(4), hasOpen: true},
		{name: "begin moves forward without a close", op: begin, at: h(6), open: h(6), hasOpen: true},
		{name: "advance after begin", op: advance, at: h(6.5), open: h(6), hasOpen: true},
		{name: "close after begin", op: closeOp, closed: h(6), ok: true},
		{name: "begin with no bin open", op: begin, at: h(1), open: h(1), hasOpen: true},
	}
	c := NewClock(time.Hour)
	if _, ok := c.Open(); ok {
		t.Fatal("a new clock has a bin open")
	}
	for _, s := range steps {
		var closed time.Time
		var ok bool
		switch s.op {
		case advance:
			closed, ok = c.Advance(s.at)
		case closeOp:
			closed, ok = c.Close()
		case begin:
			c.Begin(s.at)
		}
		if ok != s.ok || (ok && !closed.Equal(s.closed)) {
			t.Errorf("%s: closed %v/%t, want %v/%t", s.name, closed, ok, s.closed, s.ok)
		}
		if open, has := c.Open(); has != s.hasOpen || (has && !open.Equal(s.open)) {
			t.Errorf("%s: open %v/%t, want %v/%t", s.name, open, has, s.open, s.hasOpen)
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
	pts := dense(s, t0, t0.Add(4*time.Hour))
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
}
