package delay

import (
	"math"

	"pinpoint/internal/ident"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/trace"
)

// Column is an open bin's RTTs in arrival order: the RTT column of every
// view that yields a record, once, and one probe header per such view. The
// RTTs of hop h are the far side of link (h−1, h) and the near side of link
// (h, h+1), so records of both links point at the same values. A Detector
// fills its own Column; the sharded engine fills one for every shard, and its
// shard detectors read it at close (Detector.ShareColumn).
type Column struct {
	rtts  []float64
	heads []viewHead
}

// viewHead is the probe of one view in a Column.
type viewHead struct {
	probe int32
	asn   ipmap.ASN
}

// Reset empties the column, keeping its capacity.
func (c *Column) Reset() { c.rtts, c.heads = c.rtts[:0], c.heads[:0] }

// Log is an open bin's differential-RTT records in arrival order, one per
// (view, link, far stretch, run of consecutive near replies). A record holds
// no RTT: it points into a Column, whose rtts[far:far+nFar] are the far RTTs
// and rtts[near:near+nNear] the near RTTs. Its ∆ samples are far[k] −
// near[i], near-major — the sequence ExtractView's callbacks describe — so
// the common 3×3 hop pair is one record of 20 bytes instead of nine ∆s. A
// Detector builds a link's ∆ column from its Log only when the bin closes;
// the sharded engine routes each record to the Log of its link's shard.
type Log struct {
	recs []record
}

// record is one (view, link, far stretch, near run) of a Log: offsets into
// the Column's RTTs and the index of the view's header.
type record struct {
	link  ident.LinkID
	view  uint32
	far   uint32
	near  uint32
	nFar  uint16
	nNear uint16
}

// Len returns how many records the log holds.
func (l *Log) Len() int { return len(l.recs) }

// Reset empties the log, keeping its capacity.
func (l *Log) Reset() { l.recs = l.recs[:0] }

// Recorder turns the ExtractView callbacks of one view at a time into Log
// records over a Column. The view's RTT column and header join the Column
// at its first callback, so a view that yields no record leaves nothing. A
// callback that repeats the previous callback's link and far stretch, with
// the next near reply in the view's column, extends the previous record;
// any other callback opens one. The rule reads the callback sequence, not
// a log, so routing each callback to the log of its link's shard yields, in
// total, exactly the records one log would hold.
type Recorder struct {
	col  *Column
	rtt  []float64 // the view's RTT column
	head viewHead
	base int // offset of rtt[0] in col.rtts; −1 until the view's first record
	view uint32

	// The previous callback of the view: its link, far stretch start and
	// near reply. far < 0 lets no callback join.
	link      ident.LinkID
	far, near int
}

// Begin starts view v, whose probe's AS is asn, over col.
func (r *Recorder) Begin(col *Column, v *trace.View, asn ipmap.ASN) {
	*r = Recorder{col: col, rtt: v.RTT, head: viewHead{int32(v.Prb), asn}, base: -1, far: -1}
}

// Record appends one ExtractView callback of the current view — near reply
// i, far stretch [j, k) — to l, the log that also took the callbacks of
// link before it.
func (r *Recorder) Record(l *Log, link ident.LinkID, i, j, k int) {
	if r.base < 0 {
		r.base, r.view = len(r.col.rtts), uint32(len(r.col.heads))
		r.col.rtts = append(ident.Grow(r.col.rtts, len(r.rtt)), r.rtt...)
		r.col.heads = append(ident.Grow(r.col.heads, 1), r.head)
	} else if j == r.far && i == r.near+1 && link == r.link && l.recs[len(l.recs)-1].nNear < math.MaxUint16 {
		l.recs[len(l.recs)-1].nNear++
		r.near = i
		return
	}
	r.link, r.far, r.near = link, j, i
	if k-j > math.MaxUint16 {
		// One record per chunk, far[:m] − near then far[m:] − near: the same
		// ∆s in the same order, but no later near reply may join them.
		r.far = -1
		for ; k-j > math.MaxUint16; j += math.MaxUint16 {
			r.add(l, link, i, j, j+math.MaxUint16)
		}
	}
	r.add(l, link, i, j, k)
}

// add opens a record of far stretch [j, k) with near reply i.
func (r *Recorder) add(l *Log, link ident.LinkID, i, j, k int) {
	l.recs = append(ident.Grow(l.recs, 1), record{
		link: link, view: r.view,
		far: uint32(r.base + j), near: uint32(r.base + i),
		nFar: uint16(k - j), nNear: 1,
	})
}
