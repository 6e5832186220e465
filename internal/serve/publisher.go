// Package serve is the §8 serving layer of the Internet Health Report: a
// snapshot-published read model plus HTTP API that decouples serving from
// analysis, split into a writer role and a replica role sharing one
// snapshot-assembly core.
//
// The analysis goroutine owns all mutable state. Every engine bin close
// (core.Analyzer.OnBinClose), and the end of the run, yields one
// segstore.BinRecord — everything that close contributed — and the record is
// the only thing that moves: it is appended to the segment store when there
// is one, turned into the feed Delta, applied to the writer's own mirror by
// the same mirror.apply a Follower runs, published as an immutable Snapshot
// with a single atomic.Pointer swap, and broadcast (see store.go, feed.go,
// mirror.go). HTTP handlers load the current snapshot and read it without
// any locking: a slow or heavy reader can never stall ObserveBatch, and a
// heavy batch can never stall readers, because the two sides share no lock
// at all. History — feed catch-up, /api/bins — is read from the snapshot
// too, on either role.
//
// The alarm, event and magnitude slices inside consecutive snapshots share
// their append-only backing arrays: closed bins are immutable, so a mirror
// only ever appends past the published lengths, and publishing costs one
// O(ASes) map copy, not a deep copy of the accumulated history.
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

// DelayAlarm and FwdAlarm are the wire form of the §4 delay-change and §5
// forwarding alarms — the very rows the segment store persists, field for
// field the payload the pre-snapshot server emitted.
type (
	DelayAlarm = segstore.DelayRow
	FwdAlarm   = segstore.FwdRow
)

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
	Results    int64
	Done       bool // the run finished successfully
	Failed     bool // the run finished with an error
	Err        string
	Identities Identities

	DelayAlarms []DelayAlarm
	FwdAlarms   []FwdAlarm
	Events      []Event

	// Incremental magnitude region: dense per-AS magnitudes, one per bin,
	// over [MagStart, MagEnd); index i is the bin magBin(i).
	MagStart, MagEnd time.Time
	delayMag, fwdMag map[ipmap.ASN][]float64
	ases             [2][]ipmap.ASN // each family's ASes in arrival order

	// marks are the mirror's, one per seq ending at Seq: the history
	// catch-up and /api/bins cut from (feed.go).
	marks []seqMark

	enc       *streams
	encStatus payloadCache
}

// Complete reports whether analysis has finished (successfully or not); a
// complete snapshot never changes again.
func (s *Snapshot) Complete() bool { return s.Done || s.Failed }

// magRange maps the bins in [from, to) ∩ the published region onto row
// indices of the dense per-AS series, which all start at MagStart: like
// every list endpoint's filter it compares bin starts with the bounds, so
// the range runs from the first bin at or after from to the last bin before
// to.
func (s *Snapshot) magRange(from, to time.Time) (i, j int) {
	if s.BinSize <= 0 || s.MagEnd.IsZero() {
		return 0, 0
	}
	f := binCeil(from, s.BinSize)
	t := binCeil(to, s.BinSize)
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

// magBin is the bin of row i of the dense per-AS magnitudes.
func (s *Snapshot) magBin(i int) time.Time {
	return s.MagStart.Add(time.Duration(i) * s.BinSize)
}

// binCeil returns the first bin start at or after t.
func binCeil(t time.Time, size time.Duration) time.Time {
	b := timeseries.Bin(t, size)
	if b.Before(t) {
		b = b.Add(size)
	}
	return b
}

// encodedMag returns rows [i, j) of one magnitude series in encoded form,
// nil when the AS has none there (a series-less AS, which any 32-bit number
// may name, never gets a stream).
func (s *Snapshot) encodedMag(k magKey, i, j int) ([]byte, error) {
	vals := s.delayMag[k.asn]
	if k.fwd {
		vals = s.fwdMag[k.asn]
	}
	if j > len(vals) {
		j = len(vals)
	}
	if i >= j {
		return nil, nil
	}
	buf, marks, err := render(s.enc.magnitude(k), j, nestedIndent, func(b []byte, ind string, r int) ([]byte, error) {
		return appendPointJSON(b, ind, s.magBin(r), vals[r])
	})
	if err != nil {
		return nil, err
	}
	return span(buf, marks, i, j), nil
}

// Publisher is the writer role: it turns every bin close into one
// segstore.BinRecord on the analysis goroutine, advances its mirror with it,
// publishes immutable snapshots and emits the replication feed. All methods
// except Snapshot, Results, ObserveResults and the embedded broadcaster's
// must run on the analysis goroutine (they do — they are driven by the
// Analyzer's hooks and the ingest loop).
type Publisher struct {
	broadcaster

	m   mirror
	a   *core.Analyzer
	agg *events.Aggregator

	cur     atomic.Pointer[Snapshot]
	results atomic.Int64 // live between publishes, for /api/status freshness

	// rec is the open bin's record: the alarm hooks append their wire rows to
	// it — every alarm surfaces at its own bin's close, right before that
	// bin's OnBinClose (core's TestAlarmsSurfaceAtTheirBinsClose) — the close
	// fills in the rest, publish sends it on its way and empties it
	// (BinRecord.Reset: a row slice far larger than its close needed is
	// dropped, not kept for the rest of the run).
	rec      segstore.BinRecord
	finished bool

	store     *segstore.Store // nil without durability (see store.go)
	storeErr  error           // first commit failure
	resumedAt time.Time       // resume cursor, when booted from segments
	resumed   bool
}

// NewPublisher wires a Publisher into the analyzer's alarm and bin-close
// hooks and publishes an initial empty snapshot so handlers always have
// one. Call it before ingesting; the analyzer's hook fields must not be
// reassigned afterwards.
func NewPublisher(a *core.Analyzer, meta Meta) *Publisher {
	p := newPublisher(a, meta)
	p.attach()
	return p
}

// newPublisher builds a publisher whose mirror has applied seq 1, the empty
// initial publication of every run. It is inert until attach: the
// segment-store boot path (NewPublisherWithStore) first moves the mirror
// through the durable history, so the first published snapshot carries it.
func newPublisher(a *core.Analyzer, meta Meta) *Publisher {
	p := &Publisher{a: a, agg: a.Aggregator()}
	p.m = newMirror(meta, p.agg.Config().BinSize)
	p.m.apply(&Delta{Seq: 1})
	return p
}

// attach publishes the boot snapshot and installs the analyzer hooks.
func (p *Publisher) attach() {
	p.cur.Store(p.m.assemble())
	p.a.OnDelayAlarm = func(al delay.Alarm) {
		p.rec.Delay = append(p.rec.Delay, DelayAlarm{
			Bin: al.Bin, Link: al.Link.String(),
			MedianMS: al.Observed.Median, RefMS: al.Reference.Median,
			ShiftMS: al.DiffMS, Deviation: al.Deviation,
			Probes: int32(al.Probes), ASes: int32(al.ASes),
		})
	}
	p.a.OnForwardingAlarm = func(al forwarding.Alarm) {
		top, _ := al.MaxResponsibility()
		p.rec.Fwd = append(p.rec.Fwd, FwdAlarm{
			Bin: al.Bin, Router: al.Router.String(), Dst: al.Dst.String(),
			Rho: al.Rho, TopHop: top.Hop.String(), TopR: top.Responsibility,
		})
	}
	p.a.OnBinClose = func(bin time.Time, evs []events.Event, cd *events.CloseDelta) {
		p.file(evs, cd)
		p.rec.Bin = bin
		p.rec.Results = p.a.ResultsClosed()
		p.publish(false, nil)
	}
}

// ObserveResults records ingested results between bin closes so
// /api/status stays fresh while a bin is still open. Safe to call from the
// ingest goroutine.
func (p *Publisher) ObserveResults(n int) { p.results.Add(int64(n)) }

// Results returns the live ingested-result count, never below the published
// snapshot's (a warm-up replay after a store boot recounts from zero).
func (p *Publisher) Results() int64 {
	n := p.results.Load()
	if s := p.Snapshot(); s != nil && s.Results > n {
		return s.Results
	}
	return n
}

// Snapshot returns the current published snapshot. It is never nil.
func (p *Publisher) Snapshot() *Snapshot { return p.cur.Load() }

// Finish publishes the terminal snapshot: on success the aggregator's
// closed region is extended through the display window's end (so a
// completed run's read model covers [Start, End)), on failure the error is
// recorded and surfaced. Must be called on the analysis goroutine after the
// final Flush; it is idempotent.
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
	if err == nil {
		// The tail extension over empty bins is recomputed identically by any
		// restart (its windows live inside the retained horizon), so its
		// record is not committed to the store — but it does travel on the
		// feed, so a follower ends with the same region. Bin is the last one
		// the region now covers.
		var cd events.CloseDelta
		p.file(p.agg.CloseBins(p.m.meta.End, &cd), &cd)
		if thru := p.agg.Through(); !thru.IsZero() {
			p.rec.Bin = thru.Add(-p.m.binSize)
		}
	}
	// A run that failed during a store boot's warm-up replay has recounted
	// fewer results than are durable.
	p.rec.Results = max(int64(p.a.Results()), p.m.results)
	p.publish(true, err)
}

// file records what one close of the aggregator contributed — events,
// magnitude points, raw series sums — in the open record.
func (p *Publisher) file(evs []events.Event, cd *events.CloseDelta) {
	rec := &p.rec
	for _, e := range evs {
		rec.Events = append(rec.Events, segstore.EventRow{
			Bin: e.Bin, ASN: uint32(e.ASN), Type: uint8(e.Type), Magnitude: e.Magnitude,
		})
	}
	rec.FirstBin = cd.FirstBin
	rec.Mag = appendSeriesRows(rec.Mag, cd.DelayMag, cd.FwdMag)
	rec.Raw = appendSeriesRows(rec.Raw, cd.DelayRaw, cd.FwdRaw)
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

// publish sends the open record on its one way out: the store (bin closes
// only), the feed delta, the writer's own mirror — through the apply a
// follower runs on the same delta — the snapshot swap, the broadcast. Only
// what a segment does not persist is added to the delta here: the identity
// counters, and on the terminal publication the run's outcome in place of a
// closed bin.
func (p *Publisher) publish(final bool, runErr error) {
	rec := &p.rec
	if !final && p.store != nil {
		p.commit(rec)
	}
	d := deltaFromRecord(rec, p.m.seq+1, p.m.binSize)
	reg := p.a.Registry()
	d.Identities = &Identities{
		Addrs: reg.Addrs(), Links: reg.Links(),
		Flows: reg.Flows(), Routers: reg.Routers(),
	}
	if final {
		d.Bin = time.Time{}
		d.Done = runErr == nil
		if runErr != nil {
			d.Failed, d.Err = true, runErr.Error()
		}
	}
	p.m.apply(&d)
	p.cur.Store(p.m.assemble())
	p.broadcast(d)
	rec.Reset()
}
