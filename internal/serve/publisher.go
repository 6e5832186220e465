// Package serve is the §8 serving layer of the Internet Health Report: a
// snapshot-published read model plus HTTP API that decouples serving from
// analysis, now split into a writer role and a replica role sharing one
// snapshot-assembly core.
//
// The analysis goroutine owns all mutable state. On every engine bin close
// (core.Analyzer.OnBinClose) and at the end of the run, the Publisher
// assembles an immutable Snapshot — wire-form alarm slices, the
// incrementally maintained per-AS magnitude series and event list from
// internal/events, and status counters — and publishes it with a single
// atomic.Pointer swap. HTTP handlers load the current snapshot and read it
// without any locking: a slow or heavy reader can never stall ObserveBatch,
// and a heavy batch can never stall readers, because the two sides share no
// lock at all.
//
// The alarm, event and magnitude slices inside consecutive snapshots share
// their append-only backing arrays: closed bins are immutable, so the
// analysis side only ever appends past the published lengths, and
// publishing is the aggregator's O(ASes) clipped maps, not a deep copy of
// the accumulated history.
//
// Every publication also emits one Delta on the versioned replication feed
// (see feed.go). A Follower (follower.go) rebuilds byte-identical snapshots
// purely from that feed — the same mirror type (mirror.go) drives both
// roles, so the writer's and a replica's payloads agree to the byte.
package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/segstore"
	"pinpoint/internal/timeseries"
)

// DelayAlarm is the wire form of a §4 delay-change alarm, field for field
// the payload the pre-snapshot server emitted.
type DelayAlarm struct {
	Bin       time.Time `json:"bin"`
	Link      string    `json:"link"`
	MedianMS  float64   `json:"median_ms"`
	RefMS     float64   `json:"reference_ms"`
	ShiftMS   float64   `json:"shift_ms"`
	Deviation float64   `json:"deviation"`
	Probes    int       `json:"probes"`
	ASes      int       `json:"ases"`
}

// FwdAlarm is the wire form of a §5 forwarding anomaly.
type FwdAlarm struct {
	Bin    time.Time `json:"bin"`
	Router string    `json:"router"`
	Dst    string    `json:"dst"`
	Rho    float64   `json:"rho"`
	TopHop string    `json:"top_hop"`
	TopR   float64   `json:"top_responsibility"`
}

// Event is the wire form of a §6 major event.
type Event struct {
	ASN       string    `json:"asn"`
	Bin       time.Time `json:"bin"`
	Type      string    `json:"type"`
	Magnitude float64   `json:"magnitude"`
}

// Point is one magnitude sample.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// Identities are the interned identity-layer counters shown by /api/status.
type Identities struct {
	Addrs   int `json:"addrs"`
	Links   int `json:"links"`
	Flows   int `json:"flows"`
	Routers int `json:"routers"`
}

// Meta describes the analysis run being served.
type Meta struct {
	Case        string
	Description string
	Start, End  time.Time
}

// Snapshot is one immutable published state of the analysis. Everything a
// handler needs is reachable from it without a lock shared with the
// analysis side. The rows' encoded form lives in the mirror's streams
// (render.go), which every snapshot of that mirror shares and reads a
// prefix of.
type Snapshot struct {
	Seq        uint64
	Meta       Meta
	BinSize    time.Duration
	LastBin    time.Time // last closed bin; zero before the first close
	Results    int
	Done       bool // the run finished successfully
	Failed     bool // the run finished with an error
	Err        string
	Identities Identities

	DelayAlarms []DelayAlarm
	FwdAlarms   []FwdAlarm
	Events      []Event

	// Incremental magnitude region (see events.MagnitudeSnapshot): dense
	// hourly points per AS over [MagStart, MagEnd).
	MagStart, MagEnd time.Time
	delayMag, fwdMag map[ipmap.ASN][]timeseries.Point

	enc       *streams
	encStatus payloadCache
}

// Complete reports whether analysis has finished (successfully or not); a
// complete snapshot never changes again.
func (s *Snapshot) Complete() bool { return s.Done || s.Failed }

// magRange maps [from, to) ∩ the published region onto row indices of the
// dense per-AS series, which all start at MagStart.
func (s *Snapshot) magRange(from, to time.Time) (i, j int) {
	if s.BinSize <= 0 || s.MagEnd.IsZero() {
		return 0, 0
	}
	f := timeseries.Bin(from, s.BinSize)
	t := timeseries.Bin(to, s.BinSize)
	if f.Before(s.MagStart) {
		f = s.MagStart
	}
	if t.After(s.MagEnd) {
		t = s.MagEnd
	}
	if !f.Before(t) {
		return 0, 0
	}
	return int(f.Sub(s.MagStart) / s.BinSize), int(t.Sub(s.MagStart) / s.BinSize)
}

// magRows returns rows [i, j) of one magnitude series in encoded form, nil
// when the AS has none there (a series-less AS, which any 32-bit number may
// name, never gets a stream).
func (s *Snapshot) magRows(k magKey, i, j int) ([]byte, error) {
	pts := s.delayMag[k.asn]
	if k.fwd {
		pts = s.fwdMag[k.asn]
	}
	if j > len(pts) {
		j = len(pts)
	}
	if i >= j {
		return nil, nil
	}
	buf, marks, err := render(s.enc.magnitude(k), pts[:j], nestedIndent, appendPointJSON)
	if err != nil {
		return nil, err
	}
	return span(buf, marks, i, j), nil
}

// Publisher is the writer role: it accumulates the read model on the
// analysis goroutine (via the shared mirror), publishes immutable snapshots
// and emits the replication feed. All methods except Snapshot, Results and
// the embedded feedLog's (subscriptions, catch-up, store readers) must run
// on the analysis goroutine (they do — they are driven by the Analyzer's
// hooks and the ingest loop).
type Publisher struct {
	feedLog // ring + segment store (see store.go for the commit/boot paths)

	m   mirror
	a   *core.Analyzer
	agg *events.Aggregator

	cur     atomic.Pointer[Snapshot]
	results atomic.Int64 // live between publishes, for /api/status freshness

	// sentDelay/sentFwd track the alarm prefixes already emitted on the
	// feed. Deltas partition alarms by closing bin — the same rule commitBin
	// uses — so live and store-synthesized deltas carry identical rows.
	sentDelay, sentFwd int
	closeDelta         events.CloseDelta // per-close capture scratch
	finished           bool

	// Segment-store commit state (see store.go): storeErr is guarded by
	// storeMu, everything else is written only at construction or on the
	// analysis goroutine.
	storeErr       error
	committedDelay int // prefix of p.m.delay already committed to segments
	committedFwd   int
	storeRec       segstore.BinRecord // reused per-commit encode scratch
	floorResults   int                // durable result count; floor during warmup replay
	resumedAt      time.Time          // resume cursor, when booted from segments
	resumed        bool
}

// NewPublisher wires a Publisher into the analyzer's alarm and bin-close
// hooks and publishes an initial empty snapshot so handlers always have
// one. Call it before ingesting; the analyzer's hook fields must not be
// reassigned afterwards.
func NewPublisher(a *core.Analyzer, meta Meta) *Publisher {
	p := newPublisher(a, meta)
	p.publish(time.Time{}, false, nil, nil)
	return p
}

// newPublisher builds the publisher and installs the analyzer hooks, but
// does not publish the initial snapshot: the segment-store boot path
// (NewPublisherWithStore) restores the read model first so the first
// published snapshot already carries the durable history.
func newPublisher(a *core.Analyzer, meta Meta) *Publisher {
	p := &Publisher{a: a, agg: a.Aggregator()}
	p.m.meta = meta
	p.m.binSize = p.agg.Config().BinSize
	p.feedLog = feedLog{bc: newBroadcaster(), binSize: p.m.binSize}
	a.OnDelayAlarm = func(al delay.Alarm) {
		p.m.delay = append(p.m.delay, DelayAlarm{
			Bin: al.Bin, Link: al.Link.String(),
			MedianMS: al.Observed.Median, RefMS: al.Reference.Median,
			ShiftMS: al.DiffMS, Deviation: al.Deviation,
			Probes: al.Probes, ASes: al.ASes,
		})
	}
	a.OnForwardingAlarm = func(al forwarding.Alarm) {
		top, _ := al.MaxResponsibility()
		p.m.fwd = append(p.m.fwd, FwdAlarm{
			Bin: al.Bin, Router: al.Router.String(), Dst: al.Dst.String(),
			Rho: al.Rho, TopHop: top.Hop.String(), TopR: top.Responsibility,
		})
	}
	a.OnBinClose = func(bin time.Time) {
		evs := p.agg.CloseBinsRecord(bin.Add(p.m.binSize), &p.closeDelta)
		p.syncEvents()
		if p.store != nil {
			p.commitBin(bin, &p.closeDelta, evs)
		}
		p.publish(bin, false, nil, &p.closeDelta)
	}
	return p
}

// ObserveResults records ingested results between bin closes so
// /api/status stays fresh while a bin is still open. Safe to call from the
// ingest goroutine.
func (p *Publisher) ObserveResults(n int) { p.results.Add(int64(n)) }

// Results returns the live ingested-result count.
func (p *Publisher) Results() int {
	n := int(p.results.Load())
	if s := p.Snapshot(); s != nil && s.Results > n {
		return s.Results
	}
	return n
}

// Snapshot returns the current published snapshot. It is never nil.
func (p *Publisher) Snapshot() *Snapshot { return p.cur.Load() }

// Finish publishes the terminal snapshot: on success the incremental
// event/magnitude region is extended through the display window's end (so
// a completed run answers exactly like a full recomputation over
// [Start, End)), on failure the error is recorded and surfaced. Must be
// called on the analysis goroutine after the final Flush; it is idempotent.
func (p *Publisher) Finish(err error) {
	if p.finished {
		return
	}
	p.finished = true
	if err == nil {
		if serr := p.StoreErr(); serr != nil {
			// The analysis itself succeeded but its durable record did not: a
			// monitoring client must not mistake a store with missing bins for
			// a completed run.
			err = fmt.Errorf("segment store commit failed: %w", serr)
		}
	}
	var cd *events.CloseDelta
	if err == nil {
		// The tail extension over empty bins is recomputed identically by any
		// restart (its windows live inside the retained horizon), so it is
		// not committed to the store — but its magnitude points do travel on
		// the feed, so a follower ends with the same region.
		p.agg.CloseBinsRecord(p.m.meta.End, &p.closeDelta)
		p.syncEvents()
		cd = &p.closeDelta
	}
	p.publish(time.Time{}, true, err, cd)
}

// syncEvents appends the aggregator's new incremental events to the mirror
// in wire form.
func (p *Publisher) syncEvents() {
	for _, e := range p.agg.IncrementalEvents()[len(p.m.evs):] {
		p.m.evs = append(p.m.evs, Event{
			ASN: e.ASN.String(), Bin: e.Bin, Type: e.Type.String(), Magnitude: e.Magnitude,
		})
	}
}

// publish assembles and swaps in the next snapshot, then broadcasts the
// feed delta against the previous one. cd is the close's capture (nil for
// the initial/restore publication and failed finishes) supplying the
// delta's magnitude rows.
func (p *Publisher) publish(closedBin time.Time, final bool, runErr error, cd *events.CloseDelta) {
	prev := p.cur.Load()
	p.m.seq++
	reg := p.a.Registry()
	res := p.a.Results()
	if res < p.floorResults {
		// Warmup replay after a segment-store boot recounts from zero; keep
		// reporting the durable count until the replay catches up.
		res = p.floorResults
	}
	p.m.results = res
	p.m.idents = Identities{
		Addrs: reg.Addrs(), Links: reg.Links(),
		Flows: reg.Flows(), Routers: reg.Routers(),
	}
	if !closedBin.IsZero() {
		p.m.lastBin = closedBin
	}
	if final {
		if runErr != nil {
			p.m.failed = true
			p.m.errMsg = runErr.Error()
		} else {
			p.m.done = true
		}
	}
	if dm, fm, start, thru, ok := p.agg.MagnitudeSnapshot(); ok {
		p.m.delayMag, p.m.fwdMag = dm, fm
		p.m.magStart, p.m.magThrough = start, thru
	} else {
		p.m.delayMag, p.m.fwdMag = nil, nil
		p.m.magStart, p.m.magThrough = time.Time{}, time.Time{}
	}
	snap := p.m.assemble()
	p.cur.Store(snap)
	p.results.Store(int64(snap.Results))

	if prev == nil {
		// First publication (fresh boot or store restore): nobody can be
		// subscribed yet and nothing travels — catch-up serves this seq as
		// the empty initial delta or from the store's last record, never
		// from the ring. Sent counters start at the published lengths so the
		// next delta carries only newer rows.
		p.sentDelay, p.sentFwd = len(snap.DelayAlarms), len(snap.FwdAlarms)
		return
	}
	// Alarms partition by closing bin (a batch spanning several closes
	// appends all its alarms before the first close hook fires); the final
	// delta flushes whatever is still unsent. This keeps each delta's rows a
	// property of the input stream, not of batch boundaries, so a delta
	// synthesized from the committed segment is identical to the live one.
	nd, nf := len(snap.DelayAlarms), len(snap.FwdAlarms)
	if !final {
		nd = p.sentDelay
		for nd < len(snap.DelayAlarms) && !snap.DelayAlarms[nd].Bin.After(closedBin) {
			nd++
		}
		nf = p.sentFwd
		for nf < len(snap.FwdAlarms) && !snap.FwdAlarms[nf].Bin.After(closedBin) {
			nf++
		}
	}
	ids := snap.Identities
	d := Delta{
		Seq: snap.Seq, Bin: closedBin, Results: snap.Results,
		Done: snap.Done, Failed: snap.Failed, Err: snap.Err,
		DelayAlarms: snap.DelayAlarms[p.sentDelay:nd],
		FwdAlarms:   snap.FwdAlarms[p.sentFwd:nf],
		Events:      snap.Events[len(prev.Events):],
		MagStart:    snap.MagStart, MagThrough: snap.MagEnd,
		Identities: &ids,
	}
	p.sentDelay, p.sentFwd = nd, nf
	if cd != nil {
		d.DelayMag = magRows(cd.DelayMag)
		d.FwdMag = magRows(cd.FwdMag)
	}
	p.bc.broadcast(d)
}
