package events

// Incremental magnitude/event maintenance: the serving layer (§8) closes
// analysis bins one at a time and needs, after each close, the newly
// detected events and the extended per-AS magnitude series — without
// recomputing every AS over every bin the way an un-advanced aggregator's
// Events does. CloseBins advances a processed region [start, validThrough)
// bin by bin, appending to per-AS magnitude slices and to one event list.
//
// Closed bins are immutable: the paper evaluates each bin once, in order,
// so an alarm (or span-start move) landing below validThrough is rejected
// and counted (DroppedStale). What one advance appended is therefore final:
// CloseBinsRecord hands it out once, and the serving layer's per-bin record
// never has to be revised.
//
// The query methods (Events, DelayMagnitude, ForwardingMagnitude) split at
// the region boundary: bins inside the region answer from its cached
// points and events, bins outside it recompute from the raw series. Each
// cached point was produced by the same timeseries.MagnitudeSince code the
// recomputation uses, so the two halves are bit-identical to a full
// recompute. An aggregator nobody advanced answers by plain recomputation.

import (
	"sort"
	"time"

	"pinpoint/internal/ipmap"
	"pinpoint/internal/timeseries"
)

// incState is the incrementally maintained read model. All slices are
// append-only.
type incState struct {
	advanced     bool
	start        time.Time
	validThrough time.Time // exclusive end of the processed region

	delayMag map[ipmap.ASN][]timeseries.Point
	fwdMag   map[ipmap.ASN][]timeseries.Point
	events   []Event
}

// rejectLate reports (and counts) a mutation at bin b that lands below the
// processed region's end: closed bins are immutable. A span-start move
// below the region's start is the same condition (start ≤ validThrough).
// Before the first CloseBins nothing is closed and any order is accepted.
func (a *Aggregator) rejectLate(b time.Time) bool {
	if a.inc.advanced && b.Before(a.inc.validThrough) {
		a.droppedStale++
		return true
	}
	return false
}

// DroppedStale counts the mutations rejectLate dropped: late alarms and
// span-start moves into closed bins.
func (a *Aggregator) DroppedStale() int { return a.droppedStale }

// CloseBins advances the incremental region through every bin strictly
// before upTo's bin, computing each covered AS's magnitude at each bin and
// collecting threshold crossings. It returns the events appended by this
// call, in (bin, AS, type) order. Call it after all alarms of the closing
// bin have been added (core.Analyzer.OnBinClose fires at exactly that
// point).
func (a *Aggregator) CloseBins(upTo time.Time) []Event {
	return a.CloseBinsRecord(upTo, nil)
}

// CloseBinsRecord is CloseBins with durability capture: when d is non-nil
// it is reset and filled with everything this advance contributed to the
// read model — the appended per-AS magnitude points (including zero
// backfill) and the raw per-AS series sums of the processed bins, which a
// restart needs to keep the magnitude windows exact. Raw sums are final
// at close time: later writes into a closed bin are rejected.
func (a *Aggregator) CloseBinsRecord(upTo time.Time, d *CloseDelta) []Event {
	end := timeseries.Bin(upTo, a.cfg.BinSize)
	if d != nil {
		*d = CloseDelta{FirstBin: a.firstBin}
	}
	if !a.haveBin {
		// Nothing observed yet (or a bare aggregator fed only alarms):
		// leave the incremental region unopened and keep the recompute
		// paths authoritative.
		return nil
	}
	if !a.inc.advanced {
		a.inc.advanced = true
		a.inc.start = a.firstBin
		a.inc.validThrough = a.firstBin
		a.inc.delayMag = make(map[ipmap.ASN][]timeseries.Point)
		a.inc.fwdMag = make(map[ipmap.ASN][]timeseries.Point)
	}
	if !end.After(a.inc.validThrough) {
		return nil
	}
	asns := a.ASes()
	firstNew := len(a.inc.events)
	for t := a.inc.validThrough; t.Before(end); t = t.Add(a.cfg.BinSize) {
		for _, asn := range asns {
			if s := a.delaySeries[asn]; s != nil {
				v := a.magAt(s, t)
				old := len(a.inc.delayMag[asn])
				a.inc.delayMag[asn] = a.appendMag(a.inc.delayMag[asn], t, v)
				if d != nil {
					d.DelayMag = appendASPoints(d.DelayMag, asn, a.inc.delayMag[asn][old:])
					if rv, ok := s.Value(t); ok {
						d.DelayRaw = append(d.DelayRaw, ASPoint{ASN: asn, T: t, V: rv})
					}
				}
				if v >= a.cfg.Threshold && a.corroborated(asn, DelayChange, t, v) {
					a.inc.events = append(a.inc.events, Event{ASN: asn, Bin: t, Type: DelayChange, Magnitude: v})
				}
			}
			if s := a.fwdSeries[asn]; s != nil {
				v := a.magAt(s, t)
				old := len(a.inc.fwdMag[asn])
				a.inc.fwdMag[asn] = a.appendMag(a.inc.fwdMag[asn], t, v)
				if d != nil {
					d.FwdMag = appendASPoints(d.FwdMag, asn, a.inc.fwdMag[asn][old:])
					if rv, ok := s.Value(t); ok {
						d.FwdRaw = append(d.FwdRaw, ASPoint{ASN: asn, T: t, V: rv})
					}
				}
				if (v >= a.cfg.Threshold || v <= -a.cfg.Threshold) && a.corroborated(asn, ForwardingAnomaly, t, v) {
					a.inc.events = append(a.inc.events, Event{ASN: asn, Bin: t, Type: ForwardingAnomaly, Magnitude: v})
				}
			}
		}
	}
	a.inc.validThrough = end
	return a.inc.events[firstNew:len(a.inc.events):len(a.inc.events)]
}

// magAt computes one magnitude point through the exact code path the full
// recomputation uses, so incremental and recomputed values are identical to
// the last bit.
func (a *Aggregator) magAt(s *timeseries.Series, t time.Time) float64 {
	pts := s.MagnitudeSince(a.firstBin, t, t.Add(a.cfg.BinSize), a.cfg.Window)
	return pts[0].V
}

// appendMag appends the magnitude point for bin t to an AS's cached series,
// first backfilling any bins from before the AS's first alarm. A series
// that did not exist yet is all-zero over those windows, and the magnitude
// of zero against an all-zero window is exactly (0−0)/(1+0) = 0 — the same
// value the recomputation produces — so the backfill is pure zeros.
func (a *Aggregator) appendMag(pts []timeseries.Point, t time.Time, v float64) []timeseries.Point {
	for next := a.inc.start.Add(time.Duration(len(pts)) * a.cfg.BinSize); next.Before(t); next = next.Add(a.cfg.BinSize) {
		pts = append(pts, timeseries.Point{T: next})
	}
	return append(pts, timeseries.Point{T: t, V: v})
}

// incrementalEvents returns the maintained events in [from, to): the list
// is ordered by (bin, AS, type) — the same order the recomputation sorts
// into — so the answer is one binary-searched subrange.
func (a *Aggregator) incrementalEvents(from, to time.Time) []Event {
	f := timeseries.Bin(from, a.cfg.BinSize)
	t := timeseries.Bin(to, a.cfg.BinSize)
	evs := a.inc.events
	lo := sort.Search(len(evs), func(i int) bool { return !evs[i].Bin.Before(f) })
	hi := sort.Search(len(evs), func(i int) bool { return !evs[i].Bin.Before(t) })
	if lo == hi {
		return nil
	}
	out := make([]Event, hi-lo)
	copy(out, evs[lo:hi])
	return out
}

// magnitude answers a magnitude query over [from, to). Once the region is
// advanced, the bins it covers come from the cache (each point was produced
// from complete data at close time) and only the bins outside it recompute:
// pre-region bins against their empty windows, bins at or beyond
// validThrough from the raw series, whose windows reach back at most
// cfg.Window — the horizon EvictBefore retains.
func (a *Aggregator) magnitude(s *timeseries.Series, cached []timeseries.Point, from, to time.Time) []timeseries.Point {
	if s == nil {
		return nil
	}
	if !a.inc.advanced {
		return s.MagnitudeSince(a.spanStart(s), from, to, a.cfg.Window)
	}
	f := timeseries.Bin(from, a.cfg.BinSize)
	t := timeseries.Bin(to, a.cfg.BinSize)
	lo, hi := f, t // the query ∩ the region
	if lo.Before(a.inc.start) {
		lo = a.inc.start
	}
	if hi.After(a.inc.validThrough) {
		hi = a.inc.validThrough
	}
	i := int(lo.Sub(a.inc.start) / a.cfg.BinSize)
	j := int(hi.Sub(a.inc.start) / a.cfg.BinSize)
	if !lo.Before(hi) || j > len(cached) {
		// The query misses the region, or the AS gained its series after the
		// last close and its cache lags — but then the series' entire
		// history is still in memory and the recompute is exact.
		return s.MagnitudeSince(a.firstBin, f, t, a.cfg.Window)
	}
	out := s.MagnitudeSince(a.firstBin, f, lo, a.cfg.Window)
	out = append(out, cached[i:j]...)
	return append(out, s.MagnitudeSince(a.firstBin, hi, t, a.cfg.Window)...)
}

// Through returns the exclusive end of the closed region — every bin before
// it is final — or the zero time while the region is unopened.
func (a *Aggregator) Through() time.Time { return a.inc.validThrough }
