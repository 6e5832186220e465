// Package engine is the detection backend: the paper's two detectors behind
// one API, on one shard or sharded across CPU cores, with output
// bit-identical to a single delay.Detector / forwarding.Detector pair for
// every shard count.
//
// One timeseries.Clock, the engine's for every worker count, decides when a
// bin closes, and every close runs the same barrier. An engine with one
// worker is that detector pair: it starts no goroutine, hands each
// trace.View straight to its lone shard's two detectors on the caller's
// goroutine, and flushes them inline at a close. With more workers the
// caller's goroutine extracts each chronologically ordered view's link RTTs
// (delay.ExtractView, §4) and per-router next-hop contributions
// (forwarding.ExtractView, §5) and routes them, by a hash of the link
// respectively the router id, to one of N shards: link RTTs as delay.Log
// records, under the merge rule a lone detector's own log applies
// (delay.Recorder), so the shards' logs together hold exactly its records.
// Each shard owns a private delay.Detector and forwarding.Detector fed
// through a bounded batch channel, so the columns' rebuild and — the
// expensive part — bin evaluation (robust medians, Wilson CIs, Pearson
// correlations) run concurrently across shards. When the stream crosses a
// bin boundary the engine drains the in-flight batches, closes every shard's
// bin in parallel, and merges the shard alarm slices deterministically
// (sorted by bin, then link / router key — the exact order the sequential
// detector emits). The merged slices are returned to the caller, which
// remains the single writer into events.Aggregator.
//
// Determinism holds because (1) a link or router always hashes to the same
// shard, so its state and record order are those of a lone detector, (2)
// the §4.3 random probe dropping is seeded per (link, bin) inside
// delay.Detector rather than from a shared stream, and (3) the merge sort
// restores the global key order the sequential close produces.
//
// The engine owns (or is handed) one ident.Registry shared by extraction
// and every shard detector: the caller's goroutine interns addresses,
// links, flows and routers while extracting, and records and contributions
// cross the shard channels tagged with dense uint32 IDs. Shard routing
// hashes one uint32 instead of two 16-byte addresses, and the shard
// detectors index their per-link and per-flow state by the same IDs.
// Alarms resurface with reverse-resolved addresses, so the deterministic
// merge is unchanged.
package engine

import (
	"runtime"
	"sync"
	"time"

	"pinpoint/internal/delay"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/hash"
	"pinpoint/internal/ident"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

// Config parameterizes the engine. Zero values give GOMAXPROCS shards and
// the batching defaults below.
type Config struct {
	Delay      delay.Config
	Forwarding forwarding.Config

	// Workers is the shard count. 0 means GOMAXPROCS. With one worker the
	// lone shard runs inline on the caller's goroutine; with more the engine
	// spawns one goroutine per shard, and the detectors' Observer hooks are
	// called from those goroutines — serialized by the engine, so a hook
	// needs no locking of its own, but in an unspecified cross-shard order.
	Workers int

	// BatchSize is how many traceroute results are extracted before their
	// contributions are handed to the shards in one channel send per
	// shard. 0 means 256.
	BatchSize int

	// Registry is the shared identity layer. Leave nil to let the engine
	// create a private one; core injects the analyzer-wide registry here
	// so aggregation can resolve alarm addresses through the same IDs.
	Registry *ident.Registry
}

// shardQueue bounds how many batches may be in flight per shard; a full
// queue back-pressures the caller.
const shardQueue = 8

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.Registry == nil {
		c.Registry = ident.NewRegistry()
	}
	return c
}

// Stats are engine-wide detector statistics, gathered from all shards at a
// synchronization point.
type Stats struct {
	LinksSeen   int     // distinct links with ∆ samples (§4)
	RoutersSeen int     // distinct router IPs modeled (§5)
	AvgNextHops float64 // mean responsive next hops per reference model

	// Bin-close kernel accounting, aggregated across shards: Bins is the
	// per-shard maximum (every shard closes every bin), the remaining
	// fields sum over the shard partition — so Dur is CPU time spent
	// closing, not elapsed time (parallel shard closes overlap).
	DelayClose delay.CloseStats
	FwdClose   forwarding.CloseStats
}

// shardMsg is one unit of channel traffic to a shard: either an ingest
// batch for bin Bin, or (when reply is non-nil) a synchronization request —
// close the open bin and report alarms plus stats.
type shardMsg struct {
	bin      time.Time
	log      *delay.Log
	contribs []forwarding.Contribution

	reply chan shardResult
	flush bool // with reply: close the open bin before reporting
}

type shardResult struct {
	delayAlarms []delay.Alarm
	fwdAlarms   []forwarding.Alarm

	linksSeen   int
	routersSeen int
	refModels   int
	refNextHops int
	delayClose  delay.CloseStats
	fwdClose    forwarding.CloseStats
}

type shard struct {
	eng      *Engine
	delayDet *delay.Detector
	fwdDet   *forwarding.Detector
	ch       chan shardMsg // nil on the lone shard of a one-worker engine
}

// sync is the shard's half of a barrier: with flush it closes the open bin,
// and it always reports the detectors' statistics. It runs on the goroutine
// that owns the detectors — the shard's, or the caller's on a lone shard.
func (s *shard) sync(flush bool) shardResult {
	var res shardResult
	if flush {
		res.delayAlarms = s.delayDet.Flush()
		res.fwdAlarms = s.fwdDet.Flush()
	}
	res.linksSeen = s.delayDet.LinksSeen()
	res.routersSeen = s.fwdDet.RoutersSeen()
	res.refModels, res.refNextHops = s.fwdDet.RefStats()
	res.delayClose = s.delayDet.CloseStats()
	res.fwdClose = s.fwdDet.CloseStats()
	return res
}

func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for msg := range s.ch {
		if msg.reply != nil {
			msg.reply <- s.sync(msg.flush)
			continue
		}
		s.delayDet.BeginBin(msg.bin)
		s.fwdDet.BeginBin(msg.bin)
		s.delayDet.IngestLog(msg.log)
		for _, c := range msg.contribs {
			s.fwdDet.IngestContribution(c)
		}
		// Recycle the consumed batches; the dispatcher refills them instead
		// of growing fresh ones, keeping steady-state ingestion
		// allocation-free on the routing path.
		msg.log.Reset()
		s.eng.logPool.Put(msg.log)
		if msg.contribs != nil {
			s.eng.contribPool.Put(&msg.contribs)
		}
	}
}

// Engine is the detection backend. Like the detectors it wraps, it must be
// driven from a single goroutine (Observe/Flush/stat calls); the concurrency
// lives behind the shard channels. Close must be called to release the
// shard goroutines.
type Engine struct {
	cfg      Config
	reg      *ident.Registry
	intern   *ident.Interner // dispatcher-owned memo over reg
	probeASN func(int) (ipmap.ASN, bool)

	shards []*shard
	lone   *shard // shards[0] of a one-worker engine, run inline; else nil
	wg     sync.WaitGroup
	reply  chan shardResult // reused for every synchronization barrier

	// clock is the stream's open bin, for every worker count: its closes
	// are the engine's closes, and shard detectors only follow it.
	clock     timeseries.Clock
	closed    bool
	lastStats Stats // refreshed at every barrier; served after Close

	// The barrier's per-shard alarm runs, reused across closes so a close
	// allocates nothing beyond what the detectors return.
	daRuns [][]delay.Alarm
	faRuns [][]forwarding.Alarm

	// Per-shard buffers the caller's goroutine fills during extraction and
	// hands off once pending reaches BatchSize results.
	bufLogs     []*delay.Log
	bufContribs [][]forwarding.Contribution
	pending     int

	// The merge state of the view routeRTTs is routing.
	rec delay.Recorder

	// Batches cycle between the dispatcher and the shards: a shard puts a
	// consumed one back once it has ingested it, and dispatch prefers a
	// recycled one over allocating.
	logPool     sync.Pool
	contribPool sync.Pool
}

// New returns a started Engine; probeASN resolves probe ids to AS numbers
// for the §4.3 diversity filter, exactly as in delay.NewDetector.
func New(cfg Config, probeASN func(int) (ipmap.ASN, bool)) *Engine {
	cfg = cfg.withDefaults()
	// Every shard detector interns through the engine's registry, so the
	// IDs on routed samples resolve identically everywhere.
	cfg.Delay.Registry = cfg.Registry
	cfg.Forwarding.Registry = cfg.Registry
	e := &Engine{
		cfg:         cfg,
		reg:         cfg.Registry,
		intern:      ident.NewInterner(cfg.Registry),
		probeASN:    probeASN,
		shards:      make([]*shard, cfg.Workers),
		reply:       make(chan shardResult, cfg.Workers),
		bufLogs:     make([]*delay.Log, cfg.Workers),
		bufContribs: make([][]forwarding.Contribution, cfg.Workers),
	}
	if cfg.Workers > 1 {
		// Every shard closes its bin on its own goroutine and would call the
		// caller's observers concurrently; one mutex makes the calls take
		// turns, so a hook that fills a map stays correct when sharded.
		var mu sync.Mutex
		cfg.Delay.Observer = serialized(&mu, cfg.Delay.Observer)
		cfg.Forwarding.Observer = serialized(&mu, cfg.Forwarding.Observer)
	}
	for i := range e.shards {
		s := &shard{
			eng:      e,
			delayDet: delay.NewDetector(cfg.Delay, probeASN),
			fwdDet:   forwarding.NewDetector(cfg.Forwarding),
		}
		e.shards[i] = s
		if cfg.Workers > 1 {
			e.bufLogs[i] = new(delay.Log)
			s.ch = make(chan shardMsg, shardQueue)
			e.wg.Add(1)
			go s.run(&e.wg)
		}
	}
	if cfg.Workers == 1 {
		e.lone = e.shards[0]
	}
	e.clock = timeseries.NewClock(e.shards[0].delayDet.Config().BinSize)
	return e
}

// serialized returns fn guarded by mu (nil stays nil).
func serialized[T any](mu *sync.Mutex, fn func(T)) func(T) {
	if fn == nil {
		return nil
	}
	return func(v T) {
		mu.Lock()
		defer mu.Unlock()
		fn(v)
	}
}

// Workers returns the effective shard count.
func (e *Engine) Workers() int { return len(e.shards) }

// Registry returns the shared identity registry.
func (e *Engine) Registry() *ident.Registry { return e.reg }

// shardFor maps a dense interned ID to its owning shard: one 64-bit mix of
// a uint32 instead of hashing 16-byte addresses. The same entity always
// interns to the same ID and therefore always lands on the same shard,
// which is what keeps per-link and per-router state (and the order of its
// samples) identical to a lone detector's.
func (e *Engine) shardFor(id uint32) int {
	return int(hash.Mix64(uint64(id), 0x1d) % uint64(len(e.shards)))
}

func (e *Engine) routeRTTs(link ident.LinkID, near float64, far []float64) {
	e.rec.Record(e.bufLogs[e.shardFor(uint32(link))], link, near, far)
}

func (e *Engine) routeContribution(c forwarding.Contribution) {
	i := e.shardFor(uint32(c.Router))
	e.bufContribs[i] = append(e.bufContribs[i], c)
}

// Observe is ObserveView over the dispatcher's scratch view, without the
// closed bin.
func (e *Engine) Observe(r trace.Result) ([]delay.Alarm, []forwarding.Alarm) {
	da, fa, _, _ := e.ObserveView(e.intern.ScratchView(&r))
	return da, fa
}

// ObserveView ingests one traceroute result in its interned form, ids from
// the engine's registry (chronological order required, as for the
// detectors). When the result opens a later bin (timeseries.Clock), the
// open bin is closed across all shards in parallel: ObserveView returns it
// with ok set, and its merged alarms in exactly the order a sequential
// detector pair would have produced. A lone shard is that pair: after the
// engine's clock has had its say, its detectors take the view directly.
func (e *Engine) ObserveView(v *trace.View) (da []delay.Alarm, fa []forwarding.Alarm, closed time.Time, ok bool) {
	if e.closed {
		return nil, nil, closed, false
	}
	if closed, ok = e.clock.Advance(v.Time); ok {
		da, fa = e.closeBin(closed)
	}
	if s := e.lone; s != nil {
		// Their bin never closes here: the close above flushed it.
		s.delayDet.ObserveView(v)
		s.fwdDet.ObserveView(v)
		return da, fa, closed, ok
	}
	if asn, ok := e.probeASN(v.Prb); ok {
		e.rec.Begin(int32(v.Prb), asn)
		delay.ExtractView(e.intern, v, e.routeRTTs)
	}
	forwarding.ExtractView(e.intern, v, e.routeContribution)
	e.pending++
	if e.pending >= e.cfg.BatchSize {
		open, _ := e.clock.Open()
		e.dispatch(open)
	}
	return da, fa, closed, ok
}

// ObserveBatch ingests a slice of chronologically ordered results,
// accumulating any alarms released by bin closes within the slice.
func (e *Engine) ObserveBatch(rs []trace.Result) ([]delay.Alarm, []forwarding.Alarm) {
	var da []delay.Alarm
	var fa []forwarding.Alarm
	for _, r := range rs {
		d, f := e.Observe(r)
		da = append(da, d...)
		fa = append(fa, f...)
	}
	return da, fa
}

// dispatch hands the filled per-shard buffers to the shard channels, tagged
// with bin, the bin their results were ingested in; channel FIFO order
// preserves the per-link record order of a sequential run.
func (e *Engine) dispatch(bin time.Time) {
	for i, s := range e.shards {
		if recs, _ := e.bufLogs[i].Len(); recs == 0 && len(e.bufContribs[i]) == 0 {
			continue
		}
		s.ch <- shardMsg{bin: bin, log: e.bufLogs[i], contribs: e.bufContribs[i]}
		if v, ok := e.logPool.Get().(*delay.Log); ok {
			e.bufLogs[i] = v
		} else {
			e.bufLogs[i] = new(delay.Log)
		}
		if v, ok := e.contribPool.Get().(*[]forwarding.Contribution); ok {
			e.bufContribs[i] = (*v)[:0]
		} else {
			e.bufContribs[i] = nil
		}
	}
	e.pending = 0
}

// barrier is the synchronization point with every shard: pending buffers are
// dispatched tagged with bin, each shard runs sync — on its goroutine behind
// the batches already queued, or right here on a lone shard — and the
// replies are folded into lastStats. With flush set each shard also closes
// its open bin; the per-shard alarm runs are left unmerged in e.daRuns and
// e.faRuns (reply-arrival order), each already in the shard detector's
// sorted emission order.
func (e *Engine) barrier(bin time.Time, flush bool) {
	var agg shardResult
	e.daRuns, e.faRuns = e.daRuns[:0], e.faRuns[:0]
	fold := func(res shardResult) {
		if len(res.delayAlarms) > 0 {
			e.daRuns = append(e.daRuns, res.delayAlarms)
		}
		if len(res.fwdAlarms) > 0 {
			e.faRuns = append(e.faRuns, res.fwdAlarms)
		}
		agg.linksSeen += res.linksSeen
		agg.routersSeen += res.routersSeen
		agg.refModels += res.refModels
		agg.refNextHops += res.refNextHops
		agg.delayClose.Links += res.delayClose.Links
		agg.delayClose.Dropped += res.delayClose.Dropped
		agg.delayClose.Rejected += res.delayClose.Rejected
		agg.delayClose.Samples += res.delayClose.Samples
		agg.delayClose.Dur += res.delayClose.Dur
		agg.delayClose.Bins = max(agg.delayClose.Bins, res.delayClose.Bins)
		agg.fwdClose.Flows += res.fwdClose.Flows
		agg.fwdClose.Dur += res.fwdClose.Dur
		agg.fwdClose.Bins = max(agg.fwdClose.Bins, res.fwdClose.Bins)
	}
	if e.lone != nil {
		fold(e.lone.sync(flush))
	} else {
		e.dispatch(bin)
		for _, s := range e.shards {
			s.ch <- shardMsg{reply: e.reply, flush: flush}
		}
		for range e.shards {
			fold(<-e.reply)
		}
	}
	e.lastStats = Stats{
		LinksSeen:   agg.linksSeen,
		RoutersSeen: agg.routersSeen,
		DelayClose:  agg.delayClose,
		FwdClose:    agg.fwdClose,
	}
	if agg.refModels > 0 {
		e.lastStats.AvgNextHops = float64(agg.refNextHops) / float64(agg.refModels)
	}
}

// mergeRuns k-way merges per-shard alarm runs into one slice. Each run is
// already in the shard detector's sorted emission order, and any given
// alarm key is owned by exactly one shard, so cross-run ties cannot occur
// and the merge restores exactly the global order the sequential detector
// emits — what the old concat-and-sort produced, without the O(n log n)
// comparison sort over alarms that are already 1/W-sorted. The linear head
// scan is O(total·W); W ≤ GOMAXPROCS and alarm counts are tiny next to
// bin-close work. A single non-empty run is returned as-is (the shard's
// close builds a fresh slice per bin, so no aliasing hazard).
func mergeRuns[T any](runs [][]T, cmp func(a, b T) int) []T {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]T, 0, total)
	heads := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for i, r := range runs {
			if heads[i] >= len(r) {
				continue
			}
			if best < 0 || cmp(r[heads[i]], runs[best][heads[best]]) < 0 {
				best = i
			}
		}
		out = append(out, runs[best][heads[best]])
		heads[best]++
	}
	return out
}

func cmpDelayAlarm(a, b delay.Alarm) int {
	if c := a.Bin.Compare(b.Bin); c != 0 {
		return c
	}
	if c := a.Link.Near.Compare(b.Link.Near); c != 0 {
		return c
	}
	return a.Link.Far.Compare(b.Link.Far)
}

func cmpFwdAlarm(a, b forwarding.Alarm) int {
	if c := a.Bin.Compare(b.Bin); c != 0 {
		return c
	}
	if c := a.Router.Compare(b.Router); c != 0 {
		return c
	}
	return a.Dst.Compare(b.Dst)
}

// closeBin closes bin, the clock's just-closed bin, on every shard in
// parallel — the batches still pending belong to it — and merges the
// per-shard alarm runs into the sequential order: by bin, then link
// (Near, Far) for delay and (Router, Dst) for forwarding. Within one close
// all alarms share a bin and each shard's run is already key-sorted, so
// the k-way merge alone restores the order a single detector's sorted
// close loop emits — which keeps the downstream aggregator's
// floating-point accumulation, hook order and retained-slice order
// bit-identical.
func (e *Engine) closeBin(bin time.Time) ([]delay.Alarm, []forwarding.Alarm) {
	e.barrier(bin, true)
	da, fa := mergeRuns(e.daRuns, cmpDelayAlarm), mergeRuns(e.faRuns, cmpFwdAlarm)
	clear(e.daRuns)
	clear(e.faRuns)
	return da, fa
}

// Flush closes the open bin, if any, across all shards: it returns the bin
// with ok set and the merged alarms. The engine stays usable: a later
// Observe opens a new bin. With no bin open, and after Close, Flush is a
// no-op.
func (e *Engine) Flush() (da []delay.Alarm, fa []forwarding.Alarm, closed time.Time, ok bool) {
	if e.closed {
		return nil, nil, closed, false
	}
	if closed, ok = e.clock.Close(); ok {
		da, fa = e.closeBin(closed)
	}
	return da, fa, closed, ok
}

// Stats synchronizes with all shards and returns engine-wide detector
// statistics without closing the open bin. After Close it returns the
// statistics gathered at the last barrier (the final Flush, typically).
func (e *Engine) Stats() Stats {
	if e.closed {
		return e.lastStats
	}
	open, _ := e.clock.Open()
	e.barrier(open, false)
	return e.lastStats
}

// Close releases the shard goroutines. Any still-open bin is discarded;
// call Flush first. Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.lone == nil {
		for _, s := range e.shards {
			close(s.ch)
		}
		e.wg.Wait()
	}
}
