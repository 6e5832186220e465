package events

// The closed region: §6 evaluates every bin once, in order. CloseBins runs
// that evaluation (evalBin) for each newly closed bin and keeps what it
// produced — per-AS magnitude points and one event list — over the region
// [firstBin, validThrough). core.Analyzer calls it at every bin close.
//
// Closed bins are immutable: an alarm (or span-start move) landing below
// validThrough is rejected and counted (DroppedStale). What one close
// appended is therefore final, and the serving layer's per-bin record never
// has to be revised.
//
// The query methods (Events, DelayMagnitude, ForwardingMagnitude) read the
// region and nothing else: a bin is answered once it is closed, and never
// before. A query range is clamped to [firstBin, validThrough).

import (
	"sort"
	"time"

	"pinpoint/internal/ipmap"
	"pinpoint/internal/timeseries"
)

// incState is the closed region's read model. All slices are append-only;
// mag is indexed by Type, and an AS's magnitudes are dense from firstBin:
// index i is the bin firstBin + i·BinSize.
type incState struct {
	validThrough time.Time // exclusive end of the region; zero while unopened

	mag    [2]map[ipmap.ASN][]float64
	events []Event
}

// rejectLate reports (and counts) a mutation at bin b that lands below the
// region's end: closed bins are immutable. A span-start move below the
// region's start is the same condition (firstBin ≤ validThrough). Before
// the first CloseBins nothing is closed and any order is accepted.
func (a *Aggregator) rejectLate(b time.Time) bool {
	if b.Before(a.inc.validThrough) {
		a.droppedStale++
		return true
	}
	return false
}

// DroppedStale counts the mutations rejectLate dropped: late alarms and
// span-start moves into closed bins.
func (a *Aggregator) DroppedStale() int { return a.droppedStale }

// CloseBins advances the closed region through every bin strictly before
// upTo's bin and returns the events this call appended, in (bin, AS, type)
// order. Call it after all alarms of the closing bin have been added.
//
// When d is non-nil it is reset and filled with everything this advance
// contributed to the read model — the appended per-AS magnitude points
// (including zero backfill) and the raw per-AS series sums of the processed
// bins, which a restart needs to keep the magnitude windows exact. Raw sums
// are final at close time: later writes into a closed bin are rejected.
func (a *Aggregator) CloseBins(upTo time.Time, d *CloseDelta) []Event {
	end := timeseries.Bin(upTo, a.cfg.BinSize)
	if d != nil {
		*d = CloseDelta{FirstBin: a.firstBin}
	}
	if !a.haveBin {
		return nil // no span start yet: nothing can close
	}
	if a.inc.validThrough.IsZero() {
		a.inc.validThrough = a.firstBin
	}
	if !end.After(a.inc.validThrough) {
		return nil
	}
	asns := a.ases
	firstNew := len(a.inc.events)
	for t := a.inc.validThrough; t.Before(end); t = t.Add(a.cfg.BinSize) {
		a.inc.events = a.evalBin(t, asns, a.inc.events, func(asn ipmap.ASN, typ Type, s *timeseries.Series, v float64) {
			cached := a.inc.mag[typ]
			old := len(cached[asn])
			cached[asn] = a.appendMag(cached[asn], t, v)
			if d == nil {
				return
			}
			mag, raw := &d.DelayMag, &d.DelayRaw
			if typ == ForwardingAnomaly {
				mag, raw = &d.FwdMag, &d.FwdRaw
			}
			*mag = a.appendASPoints(*mag, asn, cached[asn], old)
			if rv, ok := s.Value(t); ok {
				*raw = append(*raw, ASPoint{ASN: asn, T: t, V: rv})
			}
		})
	}
	a.inc.validThrough = end
	return a.inc.events[firstNew:len(a.inc.events):len(a.inc.events)]
}

// evalBin is §6's evaluation of bin t: each AS's two Eq 10 magnitudes and
// the threshold test. asns must be sorted, so the events it appends to out
// come in (bin, AS, type) order. keep receives every magnitude computed.
func (a *Aggregator) evalBin(t time.Time, asns []ipmap.ASN, out []Event, keep func(ipmap.ASN, Type, *timeseries.Series, float64)) []Event {
	for _, asn := range asns {
		for typ, s := range [2]*timeseries.Series{a.delaySeries[asn], a.fwdSeries[asn]} {
			if s == nil {
				continue
			}
			typ := Type(typ)
			v := s.MagnitudeAt(a.firstBin, t, a.cfg.Window, &a.scratch)
			keep(asn, typ, s, v)
			// Delay events trigger on positive peaks (worse delays);
			// forwarding events on both signs, matching the heavy left tail
			// of Fig 5b.
			if v >= a.cfg.Threshold || typ == ForwardingAnomaly && v <= -a.cfg.Threshold {
				out = append(out, Event{ASN: asn, Bin: t, Type: typ, Magnitude: v})
			}
		}
	}
	return out
}

// appendMag appends the magnitude of bin t to an AS's cached series, first
// backfilling any bins from before the AS's first alarm. A series that did
// not exist yet is all-zero over those windows, and the magnitude of zero
// against an all-zero window is exactly (0−0)/(1+0) = 0 — the same value
// evalBin produces — so the backfill is pure zeros.
func (a *Aggregator) appendMag(vals []float64, t time.Time, v float64) []float64 {
	for n := int(t.Sub(a.firstBin) / a.cfg.BinSize); len(vals) < n; {
		vals = append(vals, 0)
	}
	return append(vals, v)
}

// magBin is the bin of index i of a cached magnitude series.
func (a *Aggregator) magBin(i int) time.Time {
	return a.firstBin.Add(time.Duration(i) * a.cfg.BinSize)
}

// closedRange clamps [from, to) to the region and returns it as bin indexes
// [i, j) from firstBin; i == j when the two miss each other. The offsets are
// clamped before they become ints, so a far-off time cannot wrap a 32-bit
// int, and truncating a negative offset toward zero is harmless once it is
// clamped to 0.
func (a *Aggregator) closedRange(from, to time.Time) (i, j int) {
	if a.inc.validThrough.IsZero() {
		return 0, 0
	}
	n := int64(a.inc.validThrough.Sub(a.firstBin) / a.cfg.BinSize)
	index := func(t time.Time) int {
		return int(min(max(int64(t.Sub(a.firstBin)/a.cfg.BinSize), 0), n))
	}
	i = index(from)
	return i, max(i, index(to))
}

// Events returns the events of the closed bins in [from, to), sorted by
// time, then AS, then type; nil when there are none.
func (a *Aggregator) Events(from, to time.Time) []Event {
	i, j := a.closedRange(from, to)
	if i == j {
		return nil
	}
	// The region's list is in (bin, AS, type) order: the range is one
	// binary-searched subrange.
	lo, hi := a.magBin(i), a.magBin(j)
	evs := a.inc.events
	x := sort.Search(len(evs), func(k int) bool { return !evs[k].Bin.Before(lo) })
	y := sort.Search(len(evs), func(k int) bool { return !evs[k].Bin.Before(hi) })
	return append([]Event(nil), evs[x:y]...)
}

// magnitude returns an AS's cached magnitude points of the closed bins in
// [from, to); nil when there are none.
func (a *Aggregator) magnitude(cached []float64, from, to time.Time) []timeseries.Point {
	i, j := a.closedRange(from, to)
	if j = min(j, len(cached)); i >= j {
		return nil
	}
	out := make([]timeseries.Point, j-i)
	for k := range out {
		out[k] = timeseries.Point{T: a.magBin(i + k), V: cached[i+k]}
	}
	return out
}

// Through returns the exclusive end of the closed region — every bin before
// it is final — or the zero time while the region is unopened.
func (a *Aggregator) Through() time.Time { return a.inc.validThrough }
