package delay

import (
	"math"

	"pinpoint/internal/ident"
	"pinpoint/internal/ipmap"
)

// Log is an open bin's differential-RTT input in arrival order. It holds
// one record per (view, link, far stretch) over one flat column of RTTs:
// the stretch's far RTTs, then every near RTT paired with them. The ∆
// samples of a record are far[k] − near[i], near-major — the sequence
// ExtractView's callbacks describe one near reply at a time — so the common
// 3×3 hop pair is one record and six RTTs instead of nine ∆s. A Detector
// keeps one Log for its open bin and builds a link's ∆ column only when the
// bin closes; the sharded engine fills one Log per shard and hands it over
// whole (Detector.IngestLog).
type Log struct {
	recs []record
	vals []float64
}

// record is one (view, link, far stretch) of a Log: vals[off:off+far] are
// the far RTTs and the near values after them the near RTTs paired with
// them, in arrival order.
type record struct {
	link  ident.LinkID
	probe int32
	asn   ipmap.ASN
	off   uint32
	far   uint16
	near  uint16
}

// Len returns how many records and RTT values the log holds.
func (l *Log) Len() (records, values int) { return len(l.recs), len(l.vals) }

// Reset empties the log, keeping its capacity.
func (l *Log) Reset() { l.recs, l.vals = l.recs[:0], l.vals[:0] }

// add opens a record of far with its first near RTT.
func (l *Log) add(r *Recorder, link ident.LinkID, near float64, far []float64) {
	off := len(l.vals)
	l.vals = append(append(grow(l.vals, len(far)+1), far...), near)
	l.recs = append(grow(l.recs, 1), record{
		link: link, probe: r.probe, asn: r.asn,
		off: uint32(off), far: uint16(len(far)), near: 1,
	})
}

// appendLog appends src's records, rebased onto the log's RTT column.
func (l *Log) appendLog(src *Log) {
	base := uint32(len(l.vals))
	l.recs = grow(l.recs, len(src.recs))
	for _, r := range src.recs {
		r.off += base
		l.recs = append(l.recs, r)
	}
	l.vals = append(grow(l.vals, len(src.vals)), src.vals...)
}

// grow returns s with room for n more elements. It grows by a quarter,
// not by append's doubling: an open-bin log keeps its peak capacity for the
// whole run, so its slack is state the detector retains.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	c := len(s) + n
	return append(make([]T, 0, max(c+c/4, 64)), s...)
}

// Recorder appends the ExtractView callbacks of one view at a time to
// Logs. A callback that repeats the previous callback's link and far
// stretch — the next near reply of the same responder — adds its near RTT
// to the previous record; any other callback opens a record. The rule reads
// the callback sequence, not a log, so routing each callback to the log of
// its link's shard yields, in total, exactly the records one log would hold.
type Recorder struct {
	probe int32
	asn   ipmap.ASN
	link  ident.LinkID
	far   *float64 // the previous callback's first far RTT; nil at a view's start
}

// Begin starts a view from probe, whose AS is asn.
func (r *Recorder) Begin(probe int32, asn ipmap.ASN) { *r = Recorder{probe: probe, asn: asn} }

// Record appends one ExtractView callback of the current view to l, the
// log that also took the callbacks of link before it.
func (r *Recorder) Record(l *Log, link ident.LinkID, near float64, far []float64) {
	if r.far == &far[0] && r.link == link && l.recs[len(l.recs)-1].near < math.MaxUint16 {
		l.vals = append(grow(l.vals, 1), near)
		l.recs[len(l.recs)-1].near++
		return
	}
	r.link, r.far = link, &far[0]
	if len(far) > math.MaxUint16 {
		// One record per chunk, far[:m] − near then far[m:] − near: the same
		// ∆s in the same order, but no later near RTT may join them.
		r.far = nil
		for len(far) > math.MaxUint16 {
			l.add(r, link, near, far[:math.MaxUint16])
			far = far[math.MaxUint16:]
		}
	}
	l.add(r, link, near, far)
}
