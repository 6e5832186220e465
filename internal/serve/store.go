package serve

// Segment-store integration: every closed bin is committed to an
// internal/segstore.Store before its snapshot is published, and a restart
// boots the read model straight from the committed segments.
//
// Commit path (analysis goroutine, inside OnBinClose):
//
//	CloseBinsRecord captures the close's read-model delta →
//	commitBin encodes one BinRecord (the wire-form alarm slices appended
//	since the last commit, the close's events, magnitude points and raw
//	series sums) → Store.Append makes it durable → the aggregator's raw
//	series are evicted down to the magnitude window.
//
// Boot path (NewPublisherWithStore on a non-empty store):
//
//	every committed record is decoded once; the wire alarm/event mirrors
//	are rebuilt verbatim (strings were stored as published), the
//	aggregator is seeded via events.RestoreIncremental, the analyzer gets
//	a resume cursor at the first uncovered bin, and the snapshot sequence
//	is seeded with one publication per committed bin — so a finished
//	resumed run serves byte-identical payloads, ETags included, to an
//	uninterrupted one.
//
// The same record→wire conversions power the replication feed's catch-up
// (feedLog.CatchUp) and a follower's local-file bootstrap
// (mirror.restoreFromRecords): committed record i is exactly feed delta
// seq i+2.
//
// A store commit failure is recorded, stops further commits (the manifest
// must stay a prefix of the run), and surfaces through Finish as a failed
// run. /api/bins reads decode committed segments directly, giving
// time-travel to any closed bin's exact contribution.

import (
	"fmt"
	"sort"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/events"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/segstore"
	"pinpoint/internal/timeseries"
)

// BinSummary is one committed bin as listed by /api/bins.
type BinSummary struct {
	Bin         time.Time `json:"bin"`
	Results     int       `json:"results"`
	DelayAlarms int       `json:"delay_alarms"`
	FwdAlarms   int       `json:"fwd_alarms"`
	Events      int       `json:"events"`
}

// BinPayload is the full time-travel view of one committed bin: exactly
// what that bin's close contributed to the read model, decoded from its
// segment.
type BinPayload struct {
	Bin         time.Time    `json:"bin"`
	Results     int          `json:"results"`
	DelayAlarms []DelayAlarm `json:"delay_alarms"`
	FwdAlarms   []FwdAlarm   `json:"fwd_alarms"`
	Events      []Event      `json:"events"`
}

// NewPublisherWithStore is NewPublisher plus durability: closed bins are
// committed to st before publication, and a non-empty st boots the read
// model from its segments. After a boot the caller must replay the run's
// input from the start — the analyzer's resume cursor (Resumed) suppresses
// everything already durable, so the replay only rebuilds detector state.
//
// Aggregator corroboration (events.Config.Corroborate ≥ 2) is rejected:
// its source ledger is not persisted, so a restore would silently change
// results.
func NewPublisherWithStore(a *core.Analyzer, meta Meta, st *segstore.Store) (*Publisher, error) {
	p := newPublisher(a, meta)
	p.store = st
	if c := p.agg.Config().Corroborate; c >= 2 {
		// Rejected even on a fresh store: the resulting segments could never
		// be restored from.
		p.detachHooks()
		return nil, fmt.Errorf("serve: segment store does not support corroboration (Corroborate=%d)", c)
	}
	if st.Len() == 0 {
		p.publish(time.Time{}, false, nil, nil)
		return p, nil
	}
	if err := p.restoreFromStore(); err != nil {
		p.detachHooks()
		return nil, err
	}
	return p, nil
}

// detachHooks unwires a publisher whose construction failed, so the
// analyzer is not left calling into a half-built read model.
func (p *Publisher) detachHooks() {
	p.a.OnDelayAlarm = nil
	p.a.OnForwardingAlarm = nil
	p.a.OnBinClose = nil
}

// Store returns the attached segment store, if any.
func (p *Publisher) Store() *segstore.Store { return p.store }

// Resumed reports whether this publisher booted from committed segments,
// and if so the resume cursor: the first bin not covered by the store,
// where live dispatch picks up during the input replay.
func (p *Publisher) Resumed() (time.Time, bool) { return p.resumedAt, p.resumed }

// StoreErr returns the first segment-commit error, if any. Once set, no
// further bins are committed (the store must stay a prefix of the run) and
// Finish reports the run as failed.
func (p *Publisher) StoreErr() error {
	if p.store == nil {
		return nil
	}
	p.storeMu.Lock()
	defer p.storeMu.Unlock()
	return p.storeErr
}

// commitBin makes one closed bin durable: the wire-form alarms appended
// since the previous commit, the events this close produced, and the
// close's magnitude/raw series delta. Runs on the analysis goroutine.
func (p *Publisher) commitBin(bin time.Time, d *events.CloseDelta, evs []events.Event) {
	if p.StoreErr() != nil {
		return
	}
	rec := &p.storeRec
	rec.Bin = bin
	rec.FirstBin = d.FirstBin
	rec.Results = int64(p.a.ResultsClosed())
	// The uncommitted mirror tails are bin-ordered (alarms surface in close
	// order for every worker count), but a batch spanning several closes appends
	// all its alarms before the first close hook fires — so commit only the
	// prefix belonging to bins ≤ the closing bin, keeping each record's
	// contents a property of the input stream, not of batch boundaries.
	nd := p.committedDelay
	rec.Delay = rec.Delay[:0]
	for ; nd < len(p.m.delay) && !p.m.delay[nd].Bin.After(bin); nd++ {
		al := p.m.delay[nd]
		rec.Delay = append(rec.Delay, segstore.DelayRow{
			Bin: al.Bin, Link: al.Link,
			MedianMS: al.MedianMS, RefMS: al.RefMS,
			ShiftMS: al.ShiftMS, Deviation: al.Deviation,
			Probes: int32(al.Probes), ASes: int32(al.ASes),
		})
	}
	nf := p.committedFwd
	rec.Fwd = rec.Fwd[:0]
	for ; nf < len(p.m.fwd) && !p.m.fwd[nf].Bin.After(bin); nf++ {
		al := p.m.fwd[nf]
		rec.Fwd = append(rec.Fwd, segstore.FwdRow{
			Bin: al.Bin, Router: al.Router, Dst: al.Dst,
			TopHop: al.TopHop, Rho: al.Rho, TopR: al.TopR,
		})
	}
	rec.Events = rec.Events[:0]
	for _, e := range evs {
		rec.Events = append(rec.Events, segstore.EventRow{
			Bin: e.Bin, ASN: uint32(e.ASN), Type: uint8(e.Type), Magnitude: e.Magnitude,
		})
	}
	rec.Mag = appendSeriesRows(rec.Mag[:0], d.DelayMag, d.FwdMag)
	rec.Raw = appendSeriesRows(rec.Raw[:0], d.DelayRaw, d.FwdRaw)

	p.storeMu.Lock()
	defer p.storeMu.Unlock()
	if err := p.store.Append(rec); err != nil {
		p.storeErr = err
		return
	}
	p.binIndex = append(p.binIndex, BinSummary{
		Bin: bin, Results: int(rec.Results),
		DelayAlarms: len(rec.Delay), FwdAlarms: len(rec.Fwd), Events: len(rec.Events),
	})
	p.committedDelay, p.committedFwd = nd, nf
	// The bin is durable: drop raw series history the magnitude window can
	// no longer reach (EvictBefore clamps to validThrough − Window).
	p.agg.EvictBefore(bin)
}

func appendSeriesRows(dst []segstore.SeriesRow, delayPts, fwdPts []events.ASPoint) []segstore.SeriesRow {
	for _, pt := range delayPts {
		dst = append(dst, segstore.SeriesRow{
			Bin: pt.T, ASN: uint32(pt.ASN), Family: segstore.FamilyDelay, V: pt.V,
		})
	}
	for _, pt := range fwdPts {
		dst = append(dst, segstore.SeriesRow{
			Bin: pt.T, ASN: uint32(pt.ASN), Family: segstore.FamilyFwd, V: pt.V,
		})
	}
	return dst
}

// restoreFromStore rebuilds the entire read model from committed segments:
// wire mirrors, aggregator region, resume cursor, snapshot sequence.
func (p *Publisher) restoreFromStore() error {
	n := p.store.Len()
	lastBin, _ := p.store.LastBin()
	validThrough := lastBin.Add(p.m.binSize)
	// Raw series sums are only needed where a future window can still read
	// them; older bins were evicted by the original run too.
	keep := validThrough.Add(-p.agg.Config().Window)

	rs := events.RestoredState{
		ValidThrough: validThrough,
		DelayMag:     make(map[ipmap.ASN][]timeseries.Point),
		FwdMag:       make(map[ipmap.ASN][]timeseries.Point),
	}
	var rec segstore.BinRecord
	for i := 0; i < n; i++ {
		if err := p.store.Record(i, &rec); err != nil {
			return fmt.Errorf("serve: decoding committed segment %d: %w", i, err)
		}
		p.m.delay = appendDelayAlarms(p.m.delay, rec.Delay)
		p.m.fwd = appendFwdAlarms(p.m.fwd, rec.Fwd)
		for _, r := range rec.Events {
			rs.Events = append(rs.Events, events.Event{
				ASN: ipmap.ASN(r.ASN), Bin: r.Bin, Type: events.Type(r.Type), Magnitude: r.Magnitude,
			})
		}
		for _, r := range rec.Mag {
			pt := timeseries.Point{T: r.Bin, V: r.V}
			if r.Family == segstore.FamilyDelay {
				rs.DelayMag[ipmap.ASN(r.ASN)] = append(rs.DelayMag[ipmap.ASN(r.ASN)], pt)
			} else {
				rs.FwdMag[ipmap.ASN(r.ASN)] = append(rs.FwdMag[ipmap.ASN(r.ASN)], pt)
			}
		}
		for _, r := range rec.Raw {
			if r.Bin.Before(keep) {
				continue
			}
			pt := events.ASPoint{ASN: ipmap.ASN(r.ASN), T: r.Bin, V: r.V}
			if r.Family == segstore.FamilyDelay {
				rs.DelayRaw = append(rs.DelayRaw, pt)
			} else {
				rs.FwdRaw = append(rs.FwdRaw, pt)
			}
		}
		p.binIndex = append(p.binIndex, BinSummary{
			Bin: rec.Bin, Results: int(rec.Results),
			DelayAlarms: len(rec.Delay), FwdAlarms: len(rec.Fwd), Events: len(rec.Events),
		})
		if i == n-1 {
			rs.FirstBin = rec.FirstBin
			p.floorResults = int(rec.Results)
		}
	}
	if err := p.agg.RestoreIncremental(rs); err != nil {
		return fmt.Errorf("serve: restoring aggregator from segments: %w", err)
	}
	p.a.SetResumeCursor(validThrough)
	p.resumedAt, p.resumed = validThrough, true
	p.syncEvents() // mirrors the restored event list through the usual path
	p.committedDelay, p.committedFwd = len(p.m.delay), len(p.m.fwd)
	// One publication happened per committed bin in the original run; seed
	// the sequence so a finished resumed run ends on the same Seq (and the
	// same /api/status bytes and ETags) as an uninterrupted one.
	p.m.seq = uint64(n)
	p.publish(lastBin, false, nil, nil)
	return nil
}

// HasStore reports whether a segment store is attached.
func (l *feedLog) HasStore() bool { return l.store != nil }

// StoreBins lists the committed bins, oldest first. ok is false when no
// store is attached.
func (l *feedLog) StoreBins() (bins []BinSummary, ok bool) {
	if l.store == nil {
		return nil, false
	}
	l.storeMu.Lock()
	defer l.storeMu.Unlock()
	return append([]BinSummary{}, l.binIndex...), true
}

// StoreBin is the /api/bins?bin= body: it decodes the committed segment of
// the given bin to the time-travel payload. found is false when the bin is
// not committed (or no store is attached).
func (l *feedLog) StoreBin(bin time.Time) (pl *BinPayload, found bool, err error) {
	if l.store == nil {
		return nil, false, nil
	}
	l.storeMu.Lock()
	defer l.storeMu.Unlock()
	b := timeseries.Bin(bin, l.binSize)
	i := sort.Search(len(l.binIndex), func(i int) bool { return !l.binIndex[i].Bin.Before(b) })
	if i == len(l.binIndex) || !l.binIndex[i].Bin.Equal(b) {
		return nil, false, nil
	}
	var rec segstore.BinRecord
	if err := l.store.Record(i, &rec); err != nil {
		return nil, true, fmt.Errorf("serve: decoding committed segment %d: %w", i, err)
	}
	pl = &BinPayload{
		Bin:         rec.Bin,
		Results:     int(rec.Results),
		DelayAlarms: appendDelayAlarms([]DelayAlarm{}, rec.Delay),
		FwdAlarms:   appendFwdAlarms([]FwdAlarm{}, rec.Fwd),
		Events:      appendWireEvents([]Event{}, rec.Events),
	}
	return pl, true, nil
}
