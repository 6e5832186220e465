// Package timeseries provides the time-binning and sliding-window machinery
// shared by the detectors: truncating timestamps to analysis bins (1 hour in
// the paper), deciding when a stream's open bin closes (Clock), accumulating
// per-bin values into series, and computing the one-week sliding median/MAD
// magnitude of §6 (Eq 10).
package timeseries

import (
	"math"
	"slices"
	"time"

	"pinpoint/internal/stats"
)

// Bin truncates t to the start of its bin of the given size (UTC).
func Bin(t time.Time, size time.Duration) time.Time {
	return t.UTC().Truncate(size)
}

// InBin reports whether t falls in the bin [start, start+size): for a bin
// start it is Bin(t, size).Equal(start), for the price of two integer range
// checks (Truncate divides, and time.Time.Sub re-adds to detect overflow —
// either costs more than the rest of a per-result bin test). Clock.Advance
// tests its open bin with it and truncates only a time outside.
func InBin(t, start time.Time, size time.Duration) bool {
	s := t.Unix() - start.Unix()
	if s < 0 || s > int64(size/time.Second) {
		return false
	}
	d := time.Duration(s)*time.Second + time.Duration(t.Nanosecond()-start.Nanosecond())
	return 0 <= d && d < size
}

// Clock is the open bin of a chronological stream, the one place that
// decides when a bin closes: a time in a later bin closes the open bin and
// opens its own, and a time in an earlier bin folds into the open bin. The
// detectors and the engine each keep one; the zero value is unusable,
// construct with NewClock.
type Clock struct {
	size time.Duration
	open time.Time
	has  bool
}

// NewClock returns a clock of the given bin size with no bin open.
func NewClock(size time.Duration) Clock { return Clock{size: size} }

// Advance places t: with no bin open it opens t's bin, and when t lies in a
// later bin than the open one it closes the open bin, returns it with
// ok set, and opens t's bin. A time in the open bin or an earlier one
// changes nothing.
func (c *Clock) Advance(t time.Time) (closed time.Time, ok bool) {
	if c.has && InBin(t, c.open, c.size) {
		return closed, false
	}
	b := Bin(t, c.size)
	if c.has && !b.After(c.open) {
		return closed, false
	}
	closed, ok = c.open, c.has
	c.open, c.has = b, true
	return closed, ok
}

// Close ends the stream: it returns the open bin, if any, and leaves no bin
// open, so the next Advance opens a fresh one.
func (c *Clock) Close() (closed time.Time, ok bool) {
	closed, ok = c.open, c.has
	c.open, c.has = time.Time{}, false
	return closed, ok
}

// Open returns the open bin; ok is false when none is.
func (c *Clock) Open() (bin time.Time, ok bool) { return c.open, c.has }

// Begin opens bin (a bin start) when no bin is open or bin is later than the
// open one, without reporting a close; an earlier bin changes nothing. A
// detector behind a dispatcher follows the dispatcher's clock with it and
// closes only when told to.
func (c *Clock) Begin(bin time.Time) {
	if !c.has || bin.After(c.open) {
		c.open, c.has = bin, true
	}
}

// Point is one (time, value) pair of a series.
type Point struct {
	T time.Time
	V float64
}

// Series accumulates values into fixed-size time bins. Values added to the
// same bin are summed, matching the paper's per-AS "sum of d(∆)" and
// "sum of rᵢ" series. It is a dense column: vals[i] is the bin
// start + i·binSize, an unwritten bin holds zero, and written tells a
// written zero from a bin nobody wrote. The column is empty or begins and
// ends on a written bin. The zero value is not usable; construct with New.
type Series struct {
	binSize time.Duration
	start   time.Time // bin of vals[0]; meaningless while vals is empty
	vals    []float64
	written []bool
	n       int // written bins
}

// New returns an empty series with the given bin size.
func New(binSize time.Duration) *Series { return &Series{binSize: binSize} }

// index is the column index of bin b (a bin start), which may lie outside
// the column.
func (s *Series) index(b time.Time) int { return int(b.Sub(s.start) / s.binSize) }

// at returns a pointer to the value of the bin containing t, marking it
// written and growing the column to reach it: zeros fill the gap, and a bin
// before the column's start shifts the column, a copy the pipeline never
// pays (it adds each bin's alarms at that bin's close, in bin order). Add
// and Set share this step; the pointer is only valid until the next
// mutation.
func (s *Series) at(t time.Time) *float64 {
	b := Bin(t, s.binSize)
	if len(s.vals) == 0 {
		s.start = b
	}
	i := s.index(b)
	if i < 0 {
		s.vals = slices.Insert(s.vals, 0, make([]float64, -i)...)
		s.written = slices.Insert(s.written, 0, make([]bool, -i)...)
		s.start, i = b, 0
	}
	for len(s.vals) <= i {
		s.vals = append(s.vals, 0)
		s.written = append(s.written, false)
	}
	if !s.written[i] {
		s.written[i] = true
		s.n++
	}
	return &s.vals[i]
}

// Add accumulates v into the bin containing t.
func (s *Series) Add(t time.Time, v float64) { *s.at(t) += v }

// Set replaces the value of the bin containing t.
func (s *Series) Set(t time.Time, v float64) { *s.at(t) = v }

// Value returns the value of the bin containing t; ok is false when the bin
// has never been written.
func (s *Series) Value(t time.Time) (v float64, ok bool) {
	if len(s.vals) == 0 {
		return 0, false
	}
	i := s.index(Bin(t, s.binSize))
	if i < 0 || i >= len(s.vals) || !s.written[i] {
		return 0, false
	}
	return s.vals[i], true
}

// EvictBefore drops every bin strictly before the bin containing t.
// Bounded-memory pipelines call this once a bin's history is durable in the
// segment store and outside every window the magnitude math can still
// reach; queries that would touch evicted bins see zeros, exactly as if the
// bins were never written, so the caller is responsible for choosing an
// eviction horizon no live window crosses. The column is resliced, not
// copied: the dropped prefix is reclaimed when an append next regrows it.
// Returns the number of written bins dropped.
func (s *Series) EvictBefore(t time.Time) int {
	if len(s.vals) == 0 {
		return 0
	}
	k := min(s.index(Bin(t, s.binSize)), len(s.vals))
	// Keep the column starting on a written bin.
	for k > 0 && k < len(s.vals) && !s.written[k] {
		k++
	}
	if k <= 0 {
		return 0
	}
	dropped := 0
	for _, w := range s.written[:k] {
		if w {
			dropped++
		}
	}
	s.vals, s.written = s.vals[k:], s.written[k:]
	s.start = s.start.Add(time.Duration(k) * s.binSize)
	s.n -= dropped
	return dropped
}

// Points returns the written bins in chronological order.
func (s *Series) Points() []Point {
	out := make([]Point, 0, s.n)
	for i, w := range s.written {
		if w {
			out = append(out, Point{T: s.start.Add(time.Duration(i) * s.binSize), V: s.vals[i]})
		}
	}
	return out
}

// Scratch is the window buffer MagnitudeAt copies and selects in, reused
// from one evaluation to the next. The zero value is ready to use; it is
// not safe for concurrent use.
type Scratch struct{ buf []float64 }

// MagnitudeAt computes the robust anomaly magnitude (Eq 10) of bin t
// against its trailing window (one week in the paper):
//
//	mag(t) = (x_t − median(W)) / (1 + 1.4826·MAD(W))
//
// where W is the dense window (t−window, t], clamped so it never reaches
// before spanStart: history that predates all observation must not appear
// as phantom zeros. Bins between spanStart and the first written one count
// as zero, so a series whose first alarm IS the event still gets a quiet
// window behind it. A window left empty by the clamp (t before spanStart)
// yields NaN. The window is one contiguous copy of the column into sc, and
// its median and MAD are selected there: no allocation once sc has grown to
// the window, and the value stats.Magnitude gives on the same window.
func (s *Series) MagnitudeAt(spanStart, t time.Time, window time.Duration, sc *Scratch) float64 {
	t = Bin(t, s.binSize)
	from := t.Add(-window).Add(s.binSize)
	if spanStart = Bin(spanStart, s.binSize); from.Before(spanStart) {
		from = spanStart
	}
	n := int(t.Sub(from)/s.binSize) + 1
	if n <= 0 {
		return math.NaN()
	}
	w := slices.Grow(sc.buf[:0], n)[:n]
	clear(w)
	x := 0.0
	if len(s.vals) > 0 {
		lo := s.index(from)
		a, b := max(lo, 0), min(lo+n, len(s.vals))
		if a < b {
			copy(w[a-lo:], s.vals[a:b])
		}
		if i := lo + n - 1; i >= 0 && i < len(s.vals) {
			x = s.vals[i]
		}
	}
	sc.buf = w
	return stats.MagnitudeInPlace(x, w)
}

// Values extracts just the values of a point slice, in order.
func Values(pts []Point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}
