package events

// Segment restore: when the serving layer persists every closed bin to the
// segment store, the aggregator's pre-window history can be evicted from
// memory (EvictBefore) and rebuilt at boot purely from segments
// (RestoreIncremental). Both lean on the contracts of incremental.go:
// closed bins are immutable, and queries read only the closed region. The
// raw series is read only by the next closes, whose windows reach back no
// further than validThrough − cfg.Window, the exact horizon EvictBefore
// retains.

import (
	"fmt"
	"time"

	"pinpoint/internal/ipmap"
	"pinpoint/internal/timeseries"
)

// ASPoint is one (AS, bin, value) sample of a per-AS series.
type ASPoint struct {
	ASN ipmap.ASN
	T   time.Time
	V   float64
}

// CloseDelta is everything one CloseBins advance contributed to the
// read model, in wire-ready form for the segment store.
type CloseDelta struct {
	FirstBin time.Time // analysis span start at close time
	DelayMag []ASPoint // magnitude points appended, incl. zero backfill
	FwdMag   []ASPoint
	DelayRaw []ASPoint // raw series sums finalized by the processed bins
	FwdRaw   []ASPoint
}

// appendASPoints appends the points of an AS's cached magnitude series from
// index from on, each at its bin.
func (a *Aggregator) appendASPoints(dst []ASPoint, asn ipmap.ASN, vals []float64, from int) []ASPoint {
	for i := from; i < len(vals); i++ {
		dst = append(dst, ASPoint{ASN: asn, T: a.magBin(i), V: vals[i]})
	}
	return dst
}

// RestoredState is the read-model state a boot path reassembles from
// committed segments and hands to RestoreIncremental.
type RestoredState struct {
	FirstBin     time.Time               // analysis span start (segment FirstBin)
	ValidThrough time.Time               // exclusive end of durable history
	Events       []Event                 // full committed event list, (bin, AS, type) order
	DelayMag     map[ipmap.ASN][]float64 // magnitudes dense from FirstBin
	FwdMag       map[ipmap.ASN][]float64
	DelayRaw     []ASPoint // raw sums within the retained window only
	FwdRaw       []ASPoint
}

// RestoreIncremental seeds a fresh aggregator from segment-derived state.
// It must run before any alarm or bin is observed; the restored region
// resumes advancing at ValidThrough.
// The maps and slices in rs are adopted, not copied — the caller must not
// reuse them.
func (a *Aggregator) RestoreIncremental(rs RestoredState) error {
	if a.haveBin || len(a.delaySeries) > 0 || len(a.fwdSeries) > 0 {
		return fmt.Errorf("events: RestoreIncremental on a non-fresh aggregator")
	}
	first := timeseries.Bin(rs.FirstBin, a.cfg.BinSize)
	through := timeseries.Bin(rs.ValidThrough, a.cfg.BinSize)
	if through.Before(first) {
		return fmt.Errorf("events: restored region ends %s before it starts %s", through, first)
	}
	a.firstBin = first
	a.haveBin = true
	a.inc.validThrough = through
	a.inc.events = rs.Events
	if rs.DelayMag != nil {
		a.inc.mag[DelayChange] = rs.DelayMag
	}
	if rs.FwdMag != nil {
		a.inc.mag[ForwardingAnomaly] = rs.FwdMag
	}
	// Every AS the region tracks must own a live series again — CloseBins
	// only extends the magnitude cache of ASes whose series exist — and
	// the retained raw window re-seeds the values future windows read.
	for asn := range rs.DelayMag {
		a.series(a.delaySeries, asn)
	}
	for asn := range rs.FwdMag {
		a.series(a.fwdSeries, asn)
	}
	for _, p := range rs.DelayRaw {
		a.series(a.delaySeries, p.ASN).Set(p.T, p.V)
	}
	for _, p := range rs.FwdRaw {
		a.series(a.fwdSeries, p.ASN).Set(p.T, p.V)
	}
	return nil
}

// EvictBefore drops raw series bins strictly before the bin containing t
// from every per-AS series, clamped so no window the next closes compute —
// (validThrough−Window, ∞) — ever crosses the eviction horizon (an
// aggregator nobody closed evicts nothing). The cached region points and
// event list are unaffected: they are the durable read model that queries
// read. Returns the number of series bins dropped.
func (a *Aggregator) EvictBefore(t time.Time) int {
	cut := timeseries.Bin(t, a.cfg.BinSize)
	if floor := a.inc.validThrough.Add(-a.cfg.Window); cut.After(floor) {
		cut = floor
	}
	dropped := 0
	for _, s := range a.delaySeries {
		dropped += s.EvictBefore(cut)
	}
	for _, s := range a.fwdSeries {
		dropped += s.EvictBefore(cut)
	}
	return dropped
}
