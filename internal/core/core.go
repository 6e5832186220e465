// Package core wires the paper's three methods into one analysis pipeline:
// traceroute results stream in; differential-RTT delay alarms (§4) and
// packet-forwarding anomalies (§5) stream out and are simultaneously
// aggregated into per-AS severity series and major events (§6).
//
// This is the engine behind cmd/pinpoint (offline analysis) and cmd/ihr
// (the near-real-time Internet Health Report of §8).
//
// The Analyzer is a thin facade over one detection backend, the engine of
// internal/engine: with Workers ≤ 1 its lone shard runs the detector pair
// inline on the caller's goroutine, with more it spreads ingestion and bin
// evaluation across cores — alarms, events and series are bit-identical for
// every worker count. RunPlatform fuses an atlas.Platform generator into the
// engine and RunFiles a dump decoder, each with no intermediate channel hop
// — the full producer/consumer pipeline.
package core

import (
	"context"
	"runtime"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/delay"
	"pinpoint/internal/engine"
	"pinpoint/internal/events"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ident"
	"pinpoint/internal/ingest"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

// Config bundles the stages' configurations. Zero values give the paper's
// parameters throughout. The delay, forwarding and events bins are forced
// to match: Delay.BinSize wins when set, else one hour.
type Config struct {
	Delay  delay.Config
	Events events.Config

	// RetainAlarms keeps every alarm in memory for later queries
	// (DelayAlarms / ForwardingAlarms). Leave it false for unbounded
	// streaming runs and consume alarms via the hooks instead.
	RetainAlarms bool

	// Workers is the engine's shard count. 0 or 1 runs one shard inline
	// (two detectors on the caller's goroutine); > 1 shards per-link and
	// per-router state across that many concurrent workers, producing
	// identical output (see internal/engine). Delay.Observer is then called
	// from the shard goroutines: the calls are serialized, their
	// cross-shard order is unspecified. Use AutoWorkers for GOMAXPROCS.
	Workers int

	// chunk, when positive, is the chunk size RunPlatform asks the
	// generator for in place of atlas.DefaultBatchSize; a test raises it
	// to hand the analyzer chunks that span many bins.
	chunk int
}

// AutoWorkers sets Config.Workers to the number of usable CPUs.
const AutoWorkers = -1

// BinSize resolves the analysis bin size this configuration yields — the
// bin the delay, forwarding and events stages share after defaults apply —
// so a caller can check its flags against it before any analyzer exists.
func (c Config) BinSize() time.Duration { return c.withDefaults().Delay.BinSize }

func (c Config) withDefaults() Config {
	if c.Delay.BinSize == 0 {
		c.Delay.BinSize = time.Hour
	}
	c.Events.BinSize = c.Delay.BinSize
	if c.Workers == AutoWorkers {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	c.Workers = max(c.Workers, 1)
	return c
}

// Analyzer is the end-to-end pipeline. It must be driven from a single
// goroutine; with Workers > 1 the heavy lifting happens on the engine's
// shard goroutines while alarms still surface on the calling goroutine, so
// the hook and accessor semantics are the same for every worker count.
type Analyzer struct {
	cfg Config

	// reg is the analyzer-wide identity layer: extraction interns every
	// address/link/flow/router through it, the engine's detectors index
	// their columnar state by its IDs, and the aggregator resolves alarm
	// addresses to ASes through an ID-memoized cache. The Analyzer owns
	// its lifecycle; it lives exactly as long as the Analyzer.
	reg *ident.Registry

	intern *ident.Interner // builds the one trace.View per Result both detectors read

	eng *engine.Engine // the detection backend
	agg *events.Aggregator

	delayAlarms []delay.Alarm
	fwdAlarms   []forwarding.Alarm
	binSize     time.Duration

	// results counts the results observed, and resultsClosed the results
	// that came before the most recent close: before the result whose
	// arrival closed the bin, or all of them at Flush. Which result closes a
	// bin is a property of the input stream alone — batch boundaries and
	// worker counts do not move it — which is what makes the segment store's
	// per-bin records byte-identical across configurations.
	results       int64
	resultsClosed int64

	// OnDelayAlarm and OnForwardingAlarm, when non-nil, are invoked for
	// every alarm as its bin closes (the near-real-time reporting path).
	OnDelayAlarm      func(delay.Alarm)
	OnForwardingAlarm func(forwarding.Alarm)

	// OnBinClose, when non-nil, is invoked with each closed bin's start
	// time after every alarm of that bin has been dispatched (hooks run,
	// retained slices appended) and the aggregator has closed the bin
	// (Aggregator.CloseBins): evs are the events that close appended and d
	// everything else it contributed to the read model. Closes happen when
	// a result opens a later bin and at Flush. This is the publication
	// point for snapshot-based serving layers (internal/serve). evs and d
	// are only valid during the call.
	OnBinClose func(bin time.Time, evs []events.Event, d *events.CloseDelta)
	closeDelta events.CloseDelta // OnBinClose's d, reused across closes

	// resumeAt, when warming is set, is the restart cursor: the first bin
	// NOT yet covered by durable history (see SetResumeCursor).
	resumeAt time.Time
	warming  bool
}

// New returns an Analyzer. probeASN resolves probe ids to AS numbers (the
// §4.3 diversity filter needs it); table maps IPs to ASes for aggregation.
// It panics on an event threshold or window events.Config.Check refuses.
func New(cfg Config, probeASN func(int) (ipmap.ASN, bool), table *ipmap.Table) *Analyzer {
	cfg = cfg.withDefaults()
	reg := ident.NewRegistry()
	a := &Analyzer{
		cfg:    cfg,
		reg:    reg,
		intern: ident.NewInterner(reg),
		eng: engine.New(engine.Config{
			Delay:      cfg.Delay,
			Forwarding: forwarding.Config{BinSize: cfg.Delay.BinSize},
			Workers:    cfg.Workers,
			Registry:   reg,
		}, probeASN),
		agg:     events.NewAggregator(cfg.Events, table),
		binSize: cfg.Delay.BinSize,
	}
	// Alarm addresses were interned during extraction, so aggregation can
	// resolve AddrID→ASN through a memoized dense cache instead of walking
	// the radix trie once per alarm.
	a.agg.UseRegistry(reg)
	return a
}

// Registry exposes the analyzer-wide identity layer: interned address,
// link, flow and router counts, and reverse lookup for diagnostics.
func (a *Analyzer) Registry() *ident.Registry { return a.reg }

// Observe ingests one traceroute result (results must arrive in
// chronological order, as the platform and the Atlas stream provide them).
func (a *Analyzer) Observe(r trace.Result) {
	a.observeView(a.intern.ScratchView(&r))
}

// observeView ingests one result in its interned form (ids from a.reg) —
// built once, by Observe or by ingest's decode workers straight from the
// wire, and read by both detectors.
func (a *Analyzer) observeView(v *trace.View) {
	a.results++
	a.agg.ObserveBin(v.Time)
	da, fa, closed, ok := a.eng.ObserveView(v)
	a.dispatchDelay(da)
	a.dispatchFwd(fa)
	if ok {
		a.resultsClosed = a.results - 1
		a.binClosed(closed)
	}
}

// ObserveBatch ingests a slice of chronologically ordered results.
func (a *Analyzer) ObserveBatch(rs []trace.Result) {
	for i := range rs {
		a.Observe(rs[i])
	}
}

// SetResumeCursor arms warmup-replay mode for a restart from durable
// storage: the deterministic input stream is replayed from its beginning
// so the detectors rebuild their reference state (EWMA references,
// forwarding models — none of which is snapshotted) bit-identically, but
// everything already covered by durable history is suppressed — alarms
// whose bin starts before t are not dispatched (no aggregator feed, no
// retention, no hooks), and bins before t neither close in the aggregator
// (the restore already holds them) nor fire OnBinClose.
// Results are still counted. From bin t on, the pipeline behaves exactly
// as an uninterrupted run: same alarms, same closes, same bytes.
//
// Call it before the first Observe, with t = last durable bin + bin size
// (serve.Publisher's restore path returns exactly this cursor). The
// filter keys on each alarm's own bin, not on the cursor bin being
// reached, because a closed bin's alarms only surface after a result
// from a LATER bin arrives.
func (a *Analyzer) SetResumeCursor(t time.Time) {
	a.resumeAt = timeseries.Bin(t, a.binSize)
	a.warming = true
}

// binClosed closes bin in the aggregator — every bin close and Flush ends
// here — and publishes it through OnBinClose.
func (a *Analyzer) binClosed(bin time.Time) {
	if a.warming {
		if bin.Before(a.resumeAt) {
			return
		}
		// First non-suppressed close: every earlier bin has closed and
		// dispatched by now, so the per-alarm filter can stand down.
		a.warming = false
	}
	if a.OnBinClose == nil {
		a.agg.CloseBins(bin.Add(a.binSize), nil)
		return
	}
	evs := a.agg.CloseBins(bin.Add(a.binSize), &a.closeDelta)
	a.OnBinClose(bin, evs, &a.closeDelta)
}

// Flush closes the open bin in both detectors. Call at end of stream.
// Flush is idempotent: the engine has no open bin left, so a second call
// with no intervening Observe is a no-op, and a deferred Flush after a
// canceled RunPlatform (which already flushed) cannot emit duplicate
// alarms.
func (a *Analyzer) Flush() {
	da, fa, closed, ok := a.eng.Flush()
	a.dispatchDelay(da)
	a.dispatchFwd(fa)
	if ok {
		a.resultsClosed = a.results
		a.binClosed(closed)
	}
}

// Close releases the engine's shard goroutines (a one-worker engine has
// none; calling it twice is a no-op). It does not flush; call Flush first to
// evaluate a still-open bin.
func (a *Analyzer) Close() { a.eng.Close() }

func (a *Analyzer) dispatchDelay(alarms []delay.Alarm) {
	for _, al := range alarms {
		if a.warming && al.Bin.Before(a.resumeAt) {
			continue // durable history replayed for detector state only
		}
		a.agg.AddDelayAlarm(al)
		if a.cfg.RetainAlarms {
			a.delayAlarms = append(a.delayAlarms, al)
		}
		if a.OnDelayAlarm != nil {
			a.OnDelayAlarm(al)
		}
	}
}

func (a *Analyzer) dispatchFwd(alarms []forwarding.Alarm) {
	for _, al := range alarms {
		if a.warming && al.Bin.Before(a.resumeAt) {
			continue
		}
		a.agg.AddForwardingAlarm(al)
		if a.cfg.RetainAlarms {
			a.fwdAlarms = append(a.fwdAlarms, al)
		}
		if a.OnForwardingAlarm != nil {
			a.OnForwardingAlarm(al)
		}
	}
}

// RunPlatform runs a measurement campaign through the fused pipeline: the
// platform's generator workers produce chronologically ordered result
// chunks which are ingested on this goroutine — extraction, interning and
// shard routing happen directly on each chunk as it is delivered, with no
// intermediate channel hop or relay goroutine between producer and engine.
// Backpressure is end-to-end: a slow engine stalls delivery, which stalls
// the generator's in-flight window, which stalls its scheduler. Flush runs
// in all exit paths; the context error is returned when canceled.
//
// Optional onBatch observers run after each chunk is ingested, as in
// RunFiles.
func (a *Analyzer) RunPlatform(ctx context.Context, p *atlas.Platform, from, to time.Time, onBatch ...func(n int, first, last time.Time)) error {
	err := p.RunChunks(ctx, from, to, a.cfg.chunk, func(rs []trace.Result) error {
		a.ObserveBatch(rs)
		for _, ob := range onBatch {
			ob(len(rs), rs[0].Time, rs[len(rs)-1].Time)
		}
		return nil
	})
	a.Flush()
	return err
}

// RunFiles is the ingestion twin of RunPlatform: it replays one or more
// NDJSON traceroute dump files in order as a single logical stream ("-"
// reads stdin; gzip is auto-detected per file) through the parallel decoder
// of internal/ingest — straight to interned views, no trace.Result is built
// — and ingests every ordered batch on this goroutine: decode workers run
// ahead within their in-flight window while the engine ingests behind, with
// the same determinism guarantee as the fused generator: analysis output is
// bit-identical for every decode worker count. Flush runs in all exit
// paths; decode statistics are returned alongside any run error.
//
// Optional onBatch observers run after each batch is ingested, with the
// batch's result count and its first and last result timestamps.
func (a *Analyzer) RunFiles(ctx context.Context, paths []string, opts ingest.Options, onBatch ...func(n int, first, last time.Time)) (ingest.Stats, error) {
	st, err := ingest.FilesViews(ctx, paths, opts, a.reg, func(vs []trace.View) error {
		for i := range vs {
			a.observeView(&vs[i])
		}
		for _, ob := range onBatch {
			ob(len(vs), vs[0].Time, vs[len(vs)-1].Time)
		}
		return nil
	})
	a.Flush()
	return st, err
}

// Results returns how many traceroute results have been ingested.
func (a *Analyzer) Results() int { return int(a.results) }

// ResultsClosed returns the number of results observed before the most
// recent close: before the result that closed the bin, or every result
// when Flush closed it. Unlike Results it is invariant under batch
// boundaries and worker counts, so it is what the segment store records
// per bin.
func (a *Analyzer) ResultsClosed() int64 { return a.resultsClosed }

// Workers returns the engine's effective shard count.
func (a *Analyzer) Workers() int { return a.eng.Workers() }

// LinksSeen returns how many distinct links ever produced ∆ samples — the
// paper's "we monitored delays for 262k IPv4 links" statistic — across all
// workers.
func (a *Analyzer) LinksSeen() int { return a.eng.Stats().LinksSeen }

// RoutersSeen returns how many distinct router addresses have forwarding
// models (§5) across all workers.
func (a *Analyzer) RoutersSeen() int { return a.eng.Stats().RoutersSeen }

// AvgNextHops returns the mean number of responsive next hops per
// forwarding reference model across all workers.
func (a *Analyzer) AvgNextHops() float64 { return a.eng.Stats().AvgNextHops }

// BinCloseStats returns cumulative bin-close kernel accounting from both
// detectors, aggregated across workers (cmd/pinpoint's -binclose-stats
// summary). With several workers the durations sum shard CPU time, not
// elapsed time.
func (a *Analyzer) BinCloseStats() (delay.CloseStats, forwarding.CloseStats) {
	st := a.eng.Stats()
	return st.DelayClose, st.FwdClose
}

// DelayAlarms returns retained delay alarms (RetainAlarms must be set).
func (a *Analyzer) DelayAlarms() []delay.Alarm { return a.delayAlarms }

// ForwardingAlarms returns retained forwarding alarms.
func (a *Analyzer) ForwardingAlarms() []forwarding.Alarm { return a.fwdAlarms }

// Aggregator exposes the per-AS severity series and event detection.
func (a *Analyzer) Aggregator() *events.Aggregator { return a.agg }

// Graph builds the alarm graph (Figs 8, 12) from the retained alarms within
// [from, to).
func (a *Analyzer) Graph(from, to time.Time) *events.AlarmGraph {
	var dal []delay.Alarm
	for _, al := range a.delayAlarms {
		if !al.Bin.Before(from) && al.Bin.Before(to) {
			dal = append(dal, al)
		}
	}
	var fal []forwarding.Alarm
	for _, al := range a.fwdAlarms {
		if !al.Bin.Before(from) && al.Bin.Before(to) {
			fal = append(fal, al)
		}
	}
	return events.NewAlarmGraph(dal, fal)
}
