package serve

// mirror is the snapshot-assembly core: the pure append-only read-model
// state out of which every Snapshot is built. It advances one way only, on
// either role: apply, one feed delta at a time — the writer's own delta of
// the bin it just closed, a follower's decoded ones, and at boot (both
// roles) the deltas of a segment store's committed records. The invariants
// that make lock-free publication sound live here: slices only ever grow
// (snapshots hold fixed-length prefixes), and a Full delta starts over on
// fresh storage instead of mutating what previous snapshots still reference.

import (
	"fmt"
	"maps"
	"time"

	"pinpoint/internal/ipmap"
	"pinpoint/internal/segstore"
	"pinpoint/internal/timeseries"
)

type mirror struct {
	meta    Meta
	binSize time.Duration

	seq     uint64
	lastBin time.Time
	results int
	idents  Identities

	delay []DelayAlarm // append-only; snapshots hold prefixes
	fwd   []FwdAlarm
	evs   []Event

	// Magnitude region: dense per-AS points over [magStart, magThrough).
	// apply swaps in extended copies of the maps and never mutates one that
	// is here, so snapshots share them as they are.
	delayMag, fwdMag     map[ipmap.ASN][]timeseries.Point
	magStart, magThrough time.Time

	// enc holds the rows' encoded form (render.go), shared by every snapshot
	// assembled from this mirror; a Full delta starts over with the mirror.
	enc *streams

	done, failed bool
	errMsg       string
}

// assemble builds the immutable snapshot of the mirror's current state.
func (m *mirror) assemble() *Snapshot {
	if m.enc == nil {
		m.enc = &streams{mag: make(map[magKey]*stream)}
	}
	snap := &Snapshot{
		Seq:         m.seq,
		Meta:        m.meta,
		BinSize:     m.binSize,
		LastBin:     m.lastBin,
		Results:     m.results,
		Done:        m.done,
		Failed:      m.failed,
		Err:         m.errMsg,
		Identities:  m.idents,
		DelayAlarms: m.delay[:len(m.delay):len(m.delay)],
		FwdAlarms:   m.fwd[:len(m.fwd):len(m.fwd)],
		Events:      m.evs[:len(m.evs):len(m.evs)],
		enc:         m.enc,
	}
	if m.delayMag != nil || m.fwdMag != nil {
		snap.delayMag, snap.fwdMag = m.delayMag, m.fwdMag
		snap.MagStart, snap.MagEnd = m.magStart, m.magThrough
	}
	return snap
}

// apply advances the mirror by one decoded feed delta. The caller has
// already handled sequencing (skipping stale deltas, detecting gaps); apply
// only interprets content: a Full delta starts the mirror over (run
// identity aside), and then every delta — Full or not — appends. A nil
// Identities means "keep the previous value" (segments do not persist it).
func (m *mirror) apply(d *Delta) {
	if d.Full {
		*m = mirror{meta: m.meta, binSize: m.binSize}
	}
	m.delay = append(m.delay, d.DelayAlarms...)
	m.fwd = append(m.fwd, d.FwdAlarms...)
	m.evs = append(m.evs, d.Events...)
	if len(d.DelayMag) > 0 || len(d.FwdMag) > 0 || !d.MagThrough.IsZero() {
		m.delayMag = extendMag(m.delayMag, d.DelayMag)
		m.fwdMag = extendMag(m.fwdMag, d.FwdMag)
		m.magStart, m.magThrough = d.MagStart, d.MagThrough
	}
	if !d.Bin.IsZero() {
		m.lastBin = d.Bin
	}
	m.seq = d.Seq
	m.results = d.Results
	if d.Identities != nil {
		m.idents = *d.Identities
	}
	if d.Done {
		m.done = true
	}
	if d.Failed {
		m.failed = true
		m.errMsg = d.Err
	}
}

// extendMag returns a copy of src with rows appended to their series: the
// one per-delta map copy a published, concurrently read map costs. The
// series' backing arrays are shared and only ever written past the lengths
// src (and the snapshots holding it) can see.
func extendMag(src map[ipmap.ASN][]timeseries.Point, rows []MagRow) map[ipmap.ASN][]timeseries.Point {
	out := make(map[ipmap.ASN][]timeseries.Point, len(src))
	maps.Copy(out, src)
	for _, r := range rows {
		asn := ipmap.ASN(r.ASN)
		out[asn] = append(out[asn], timeseries.Point{T: r.T, V: r.V})
	}
	return out
}

// restoreFromRecords advances the mirror through a segment store's
// committed records — the boot path of both roles. After n records the
// mirror sits at seq n+1, where the run that wrote them stood, so a
// follower's feed connection resumes with ?since=n+1. each, when non-nil,
// also sees every decoded record (the writer seeds its aggregator from it).
// Returns the /api/bins index alongside.
func (m *mirror) restoreFromRecords(st *segstore.Store, each func(*segstore.BinRecord)) ([]BinSummary, error) {
	n := st.Len()
	bins := make([]BinSummary, 0, n)
	var rec segstore.BinRecord
	for i := 0; i < n; i++ {
		if err := st.Record(i, &rec); err != nil {
			return nil, fmt.Errorf("serve: decoding committed segment %d: %w", i, err)
		}
		d := deltaFromRecord(&rec, uint64(i+2), m.binSize)
		m.apply(&d)
		bins = append(bins, summarize(&rec))
		if each != nil {
			each(&rec)
		}
	}
	return bins, nil
}
