package serve

// Segment-store integration, the writer's alone: the record of every
// closed bin is appended to an internal/segstore.Store before its snapshot
// is published, and a restart boots the read model straight from the
// committed records. Nothing on the serving path reads the store.
//
// Commit (analysis goroutine, inside Publisher.publish): Store.Append makes
// the bin's record durable — the very record the feed delta and the mirror
// increment are derived from, so committed record i is feed delta seq i+2
// by construction — and the aggregator's raw series are evicted down to the
// magnitude window.
//
// Boot (NewPublisherWithStore on a non-empty store): from the empty seq-1
// publication, the committed records go through mirror.restoreFromRecords
// — one apply per record, landing on the seq, marks, payload bytes and
// ETags of the run that wrote them — and the same walk collects what
// events.RestoreIncremental seeds the aggregator with; the analyzer gets a
// resume cursor at the first uncovered bin.
//
// A store commit failure is recorded, stops further commits (the store
// must stay a prefix of the run, and itself refuses appends after a failed
// one), and surfaces through Finish as a failed run.

import (
	"fmt"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/events"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/segstore"
)

// NewPublisherWithStore is NewPublisher plus durability: closed bins are
// committed to st before publication, and a non-empty st boots the read
// model from its segments. After a boot the caller must replay the run's
// input from the start — the analyzer's resume cursor (Resumed) suppresses
// everything already durable, so the replay only rebuilds detector state.
func NewPublisherWithStore(a *core.Analyzer, meta Meta, st *segstore.Store) (*Publisher, error) {
	p := newPublisher(a, meta)
	p.store = st
	if st.Len() > 0 {
		if err := p.restoreFromStore(); err != nil {
			return nil, err
		}
	}
	p.attach()
	return p, nil
}

// OpenPublisher returns a's publisher, durable when dir names a segment
// store directory: it opens the store, discarding a torn tail a crash left,
// and boots from the committed bins (NewPublisherWithStore). logf reports
// the torn tail and the resume cursor. With dir "" it is NewPublisher.
func OpenPublisher(a *core.Analyzer, meta Meta, dir string, logf func(format string, args ...any)) (*Publisher, error) {
	if dir == "" {
		return NewPublisher(a, meta), nil
	}
	st, err := segstore.Open(dir)
	if err != nil {
		return nil, err
	}
	if rec := st.Recovery(); rec.Truncated > 0 {
		logf("store %s: discarded torn tail (%d bytes)", dir, rec.Truncated)
	}
	p, err := NewPublisherWithStore(a, meta, st)
	if err != nil {
		st.Close()
		return nil, err
	}
	if at, ok := p.Resumed(); ok {
		// The input is replayed from the start to rebuild detector state;
		// bins before the cursor are warmup only — they are never
		// re-committed or re-announced.
		logf("store %s: %d committed bins, resuming at %s (replaying earlier input as warmup)",
			dir, st.Len(), at.Format(time.RFC3339))
	}
	return p, nil
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
func (p *Publisher) StoreErr() error { return p.storeErr }

// commit makes one closed bin's record durable.
func (p *Publisher) commit(rec *segstore.BinRecord) {
	if p.storeErr != nil {
		return
	}
	if err := p.store.Append(rec); err != nil {
		p.storeErr = err
		return
	}
	// The bin is durable: drop raw series history the magnitude window can
	// no longer reach (EvictBefore clamps to validThrough − Window).
	p.agg.EvictBefore(rec.Bin)
}

// restoreFromStore boots the read model from committed segments: the mirror
// through restoreFromRecords, and from the same walk the aggregator's
// region and the analyzer's resume cursor.
func (p *Publisher) restoreFromStore() error {
	lastBin, _ := p.store.LastBin()
	validThrough := lastBin.Add(p.m.binSize)
	// Raw series sums are only needed where a future window can still read
	// them; older bins were evicted by the original run too.
	keep := validThrough.Add(-p.agg.Config().Window)

	rs := events.RestoredState{
		ValidThrough: validThrough,
		DelayMag:     make(map[ipmap.ASN][]float64),
		FwdMag:       make(map[ipmap.ASN][]float64),
	}
	err := p.m.restoreFromRecords(p.store, func(rec *segstore.BinRecord) {
		rs.FirstBin = rec.FirstBin
		for _, r := range rec.Events {
			rs.Events = append(rs.Events, events.Event{
				ASN: ipmap.ASN(r.ASN), Bin: r.Bin, Type: events.Type(r.Type), Magnitude: r.Magnitude,
			})
		}
		// Each AS's rows arrive dense from FirstBin, in bin order: a
		// row's index is its bin.
		for _, r := range rec.Mag {
			m := rs.FwdMag
			if r.Family == segstore.FamilyDelay {
				m = rs.DelayMag
			}
			m[ipmap.ASN(r.ASN)] = append(m[ipmap.ASN(r.ASN)], r.V)
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
	})
	if err != nil {
		return err
	}
	if err := p.agg.RestoreIncremental(rs); err != nil {
		return fmt.Errorf("serve: restoring aggregator from segments: %w", err)
	}
	p.a.SetResumeCursor(validThrough)
	p.resumedAt, p.resumed = validThrough, true
	return nil
}
