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
// The query methods (Events, DelayMagnitude, ForwardingMagnitude) answer
// closed bins from the region and run the same evaluation, without keeping
// it, for every other bin: a tail past validThrough and every bin of an
// aggregator nobody closed.

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
// the threshold test. asns must be sorted, so the events it
// appends to out come in (bin, AS, type) order. keep, when non-nil,
// receives every magnitude computed.
func (a *Aggregator) evalBin(t time.Time, asns []ipmap.ASN, out []Event, keep func(ipmap.ASN, Type, *timeseries.Series, float64)) []Event {
	for _, asn := range asns {
		for typ, s := range [2]*timeseries.Series{a.delaySeries[asn], a.fwdSeries[asn]} {
			if s == nil {
				continue
			}
			typ := Type(typ)
			v := a.magAt(s, t)
			if keep != nil {
				keep(asn, typ, s, v)
			}
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

// evalRange runs evalBin over the bins of [from, to) without keeping
// anything, appending the events to out.
func (a *Aggregator) evalRange(from, to time.Time, out []Event) []Event {
	if !from.Before(to) {
		return out
	}
	asns := a.ases
	for t := from; t.Before(to); t = t.Add(a.cfg.BinSize) {
		out = a.evalBin(t, asns, out, nil)
	}
	return out
}

// magAt computes the magnitude of bin t in the aggregator's scratch.
func (a *Aggregator) magAt(s *timeseries.Series, t time.Time) float64 {
	return s.MagnitudeAt(a.spanStart(s), t, a.cfg.Window, &a.scratch)
}

// magRange computes the magnitude points of [from, to).
func (a *Aggregator) magRange(s *timeseries.Series, from, to time.Time) []timeseries.Point {
	return s.MagnitudeSince(a.spanStart(s), from, to, a.cfg.Window)
}

// spanStart is where s's windows begin. Windows never reach before the span
// start; an aggregator never told its span start (no ObserveBin) uses the
// series' own first bin, so history before an AS's first alarm never counts
// as zeros.
func (a *Aggregator) spanStart(s *timeseries.Series) time.Time {
	if !a.haveBin {
		start, _, _ := s.Span()
		return start
	}
	return a.firstBin
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

// closedPart splits the bin range [f, t) at the closed region: bins in
// [lo, hi) are closed, the rest are not. lo == hi when the two miss each
// other, and then every bin of [f, t) lies at or after hi.
func (a *Aggregator) closedPart(f, t time.Time) (lo, hi time.Time) {
	lo, hi = f, t
	if lo.Before(a.firstBin) {
		lo = a.firstBin
	}
	if hi.After(a.inc.validThrough) {
		hi = a.inc.validThrough
	}
	if !lo.Before(hi) {
		return f, f
	}
	return lo, hi
}

// Events returns the bins in [from, to) where an AS's |mag| ≥ Threshold,
// sorted by time, then AS, then type.
func (a *Aggregator) Events(from, to time.Time) []Event {
	f := timeseries.Bin(from, a.cfg.BinSize)
	t := timeseries.Bin(to, a.cfg.BinSize)
	if a.haveBin && f.Before(a.firstBin) {
		f = a.firstBin // windows before the span start are empty: no events
	}
	lo, hi := a.closedPart(f, t)
	out := a.evalRange(f, lo, nil)
	// The region's list is in (bin, AS, type) order: the closed bins are one
	// binary-searched subrange.
	evs := a.inc.events
	i := sort.Search(len(evs), func(i int) bool { return !evs[i].Bin.Before(lo) })
	j := sort.Search(len(evs), func(i int) bool { return !evs[i].Bin.Before(hi) })
	out = append(out, evs[i:j]...)
	return a.evalRange(hi, t, out)
}

// magnitude answers a magnitude query over [from, to): closed bins from the
// cache, the others by evaluation — whose windows reach back at most
// cfg.Window, the horizon EvictBefore retains.
func (a *Aggregator) magnitude(s *timeseries.Series, cached []float64, from, to time.Time) []timeseries.Point {
	if s == nil {
		return nil
	}
	f := timeseries.Bin(from, a.cfg.BinSize)
	t := timeseries.Bin(to, a.cfg.BinSize)
	lo, hi := a.closedPart(f, t)
	i := int(lo.Sub(a.firstBin) / a.cfg.BinSize)
	j := int(hi.Sub(a.firstBin) / a.cfg.BinSize)
	if lo.Before(hi) && j > len(cached) {
		// The AS gained its series after the last close and has no cache
		// yet — but then its entire history is still in memory.
		lo, hi = f, f
	}
	out := a.magRange(s, f, lo)
	if lo.Before(hi) {
		for k := i; k < j; k++ {
			out = append(out, timeseries.Point{T: a.magBin(k), V: cached[k]})
		}
	}
	return append(out, a.magRange(s, hi, t)...)
}

// Through returns the exclusive end of the closed region — every bin before
// it is final — or the zero time while the region is unopened.
func (a *Aggregator) Through() time.Time { return a.inc.validThrough }
