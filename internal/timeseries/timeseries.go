// Package timeseries provides the time-binning and sliding-window machinery
// shared by the detectors: truncating timestamps to analysis bins (1 hour in
// the paper), deciding when a stream's open bin closes (Clock), accumulating
// per-bin values into series, and computing the one-week sliding median/MAD
// magnitude of §6 (Eq 10).
package timeseries

import (
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
// "sum of rᵢ" series. The zero value is not usable; construct with New.
type Series struct {
	binSize time.Duration
	points  []Point
	index   map[time.Time]int
}

// New returns an empty series with the given bin size.
func New(binSize time.Duration) *Series {
	return &Series{binSize: binSize, index: make(map[time.Time]int)}
}

// BinSize returns the series' bin duration.
func (s *Series) BinSize() time.Duration { return s.binSize }

// at returns a pointer to the value of the bin containing t, appending a
// zero-valued point when the bin has never been written. Add and Set share
// this lookup-or-append step; the pointer is only valid until the next
// mutation.
func (s *Series) at(t time.Time) *float64 {
	b := Bin(t, s.binSize)
	if i, ok := s.index[b]; ok {
		return &s.points[i].V
	}
	s.index[b] = len(s.points)
	s.points = append(s.points, Point{T: b})
	return &s.points[len(s.points)-1].V
}

// Add accumulates v into the bin containing t.
func (s *Series) Add(t time.Time, v float64) { *s.at(t) += v }

// Set replaces the value of the bin containing t.
func (s *Series) Set(t time.Time, v float64) { *s.at(t) = v }

// Value returns the value of the bin containing t; ok is false when the bin
// has never been written.
func (s *Series) Value(t time.Time) (v float64, ok bool) {
	i, ok := s.index[Bin(t, s.binSize)]
	if !ok {
		return 0, false
	}
	return s.points[i].V, true
}

// Len returns the number of non-empty bins.
func (s *Series) Len() int { return len(s.points) }

// EvictBefore drops every bin strictly before the bin containing t,
// reclaiming their memory. Bounded-memory pipelines call this once a
// bin's history is durable in the segment store and outside every window
// the magnitude math can still reach; queries that would touch evicted
// bins see zeros, exactly as if the bins were never written, so the
// caller is responsible for choosing an eviction horizon no live window
// crosses. Returns the number of bins dropped.
func (s *Series) EvictBefore(t time.Time) int {
	cut := Bin(t, s.binSize)
	kept := s.points[:0]
	for _, p := range s.points {
		if !p.T.Before(cut) {
			kept = append(kept, p)
		}
	}
	dropped := len(s.points) - len(kept)
	if dropped == 0 {
		return 0
	}
	// Zero the tail so evicted points are collectable, then rebuild the
	// bin index over the surviving prefix.
	tail := s.points[len(kept):]
	for i := range tail {
		tail[i] = Point{}
	}
	s.points = kept
	s.index = make(map[time.Time]int, len(kept))
	for i, p := range kept {
		s.index[p.T] = i
	}
	return dropped
}

// Points returns the series in chronological order. Bins that were never
// written do not appear; callers who need dense series use Dense.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	// Bin times are unique (one index entry per bin), so T alone is a total
	// order and the type-specialized unstable sort is deterministic.
	slices.SortFunc(out, func(a, b Point) int { return a.T.Compare(b.T) })
	return out
}

// Dense returns the series between from and to (inclusive start, exclusive
// end) with one point per bin, filling unwritten bins with zero. The paper's
// magnitude windows treat quiet hours as zero alarms, so densification
// matters: a week with one alarm must not look like a one-point window.
func (s *Series) Dense(from, to time.Time) []Point {
	from = Bin(from, s.binSize)
	to = Bin(to, s.binSize)
	var out []Point
	for t := from; t.Before(to); t = t.Add(s.binSize) {
		v, _ := s.Value(t)
		out = append(out, Point{T: t, V: v})
	}
	return out
}

// Span returns the first and last bin timestamps, or ok=false for an empty
// series.
func (s *Series) Span() (first, last time.Time, ok bool) {
	if len(s.points) == 0 {
		return time.Time{}, time.Time{}, false
	}
	first, last = s.points[0].T, s.points[0].T
	for _, p := range s.points[1:] {
		if p.T.Before(first) {
			first = p.T
		}
		if p.T.After(last) {
			last = p.T
		}
	}
	return first, last, true
}

// Magnitude computes the robust anomaly magnitude of every bin between from
// and to against a trailing window (one week in the paper): for each bin t,
//
//	mag(t) = (x_t − median(W)) / (1 + 1.4826·MAD(W))
//
// where W is the dense window (t−window, t]. Bins before `from` still
// contribute to windows. This is Eq 10 applied over the series.
func (s *Series) Magnitude(from, to time.Time, window time.Duration) []Point {
	first, _, haveSpan := s.Span()
	if !haveSpan {
		first = Bin(from, s.binSize)
	}
	return s.MagnitudeSince(first, from, to, window)
}

// MagnitudeSince is Magnitude with an explicit series start: windows are
// clamped so they never reach before spanStart, but bins between spanStart
// and the first written point count as zero. Aggregators that know the true
// analysis start use this so a series whose first alarm IS the event still
// gets a quiet (all-zero) window behind it.
func (s *Series) MagnitudeSince(spanStart, from, to time.Time, window time.Duration) []Point {
	from = Bin(from, s.binSize)
	to = Bin(to, s.binSize)
	spanStart = Bin(spanStart, s.binSize)
	var out []Point
	for t := from; t.Before(to); t = t.Add(s.binSize) {
		start := t.Add(-window).Add(s.binSize)
		// The window never reaches before the series' known start: history
		// that predates all observation must not appear as phantom zeros.
		if start.Before(spanStart) {
			start = spanStart
		}
		win := s.Dense(start, t.Add(s.binSize))
		vals := make([]float64, len(win))
		for i, p := range win {
			vals[i] = p.V
		}
		x, _ := s.Value(t)
		out = append(out, Point{T: t, V: stats.Magnitude(x, vals)})
	}
	return out
}

// Values extracts just the values of a point slice, in order.
func Values(pts []Point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}
