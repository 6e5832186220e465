// Package delay implements the paper's differential-RTT delay-change
// detection (§4): per 1-hour bin and per IP-level link it computes the
// differential RTT samples from every probe, filters links without enough
// probe diversity (§4.3), characterizes the distribution with the median and
// its Wilson-score confidence interval (§4.2.2), compares against an
// exponentially smoothed reference (§4.2.4), and reports anomalies with the
// deviation score d(∆) of Eq 6 (§4.2.3).
//
// The hot path flows interned IDs, not addresses: extraction walks a
// trace.View and interns every (near, far) pair through ident.Registry
// once. The detector keeps each traceroute's RTT column once, in arrival
// order, in one open-bin Column, and one Log record per link and far
// stretch that points into it (§4.2.1's "one to nine" ∆s of a probe and
// link come from at most six RTTs, which neighbouring links share), and
// builds a link's ∆ column only when the bin closes. Steady-state
// ingestion therefore touches no per-link state, writes no map and
// allocates nothing; addresses reappear only at bin close, where links are
// evaluated in (Near, Far) address order, which the registry sorts
// (ident.Registry.SortLinks), so the emitted alarms are bit-identical to
// the pre-ID implementation in both families.
package delay

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"pinpoint/internal/hash"
	"pinpoint/internal/ident"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/stats"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

// The paper's detection parameters (§4.2–§4.3); no caller varies them.
const (
	z          = stats.Z95 // normal quantile for the CIs: 95 %
	warmupBins = 3         // bins whose median seeds the reference
	minASes    = 3         // probe-diversity criterion 1
	minEntropy = 0.5       // probe-diversity criterion 2: normalized entropy above this
	minDiffMS  = 1.0       // minimum median gap to report, in ms
	minSamples = 9         // minimum ∆ samples per link-bin after §4.3 (Appendix B)

	// alpha is the exponential smoothing factor. The paper only says "a
	// small α value is preferable" (§4.2.4). 0.01 keeps a 2-hour, +100 ms
	// event from dragging the reference more than a couple of ms, which
	// bounds the post-event recovery tail of low-deviation alarms while
	// still adapting to genuine level shifts within a few days.
	alpha = 0.01
)

// Config parameterizes the detector. NewDetector fills a zero BinSize or
// Registry with the default noted on the field.
type Config struct {
	BinSize time.Duration // analysis bin; paper: 1 hour
	Seed    uint64        // seeds the random probe dropping of §4.3

	// Registry is the identity layer the detector interns links through.
	// Leave nil for a private registry (a standalone detector);
	// the engine injects its shared registry here so the LinkIDs
	// on routed records resolve in every shard.
	Registry *ident.Registry

	// Observer, when non-nil, receives every evaluated link-bin observation
	// (after diversity filtering), anomalous or not. Experiment harnesses
	// use it to regenerate the per-link panels of Figs 2, 7 and 11. A lone
	// detector calls it in link-key order within a bin; behind an engine
	// with several workers every shard's detector calls it, from the shard
	// goroutines: the engine serializes the calls (together with the
	// forwarding Observer's), their cross-shard order is unspecified.
	Observer func(Observation)

	// Ablation knobs — NOT part of the paper's method; they implement the
	// baselines §4.2.2 and §4.3 argue against, for the A1/A2 benches.

	// UseMeanCI characterizes bins with the arithmetic mean and its
	// standard-error CI (the original CLT) instead of the median + Wilson
	// score.
	UseMeanCI bool
	// DisableDiversityFilter accepts every link regardless of probe AS
	// diversity.
	DisableDiversityFilter bool

	// minSamples, when positive, replaces the paper's minSamples; only the
	// close golden lowers it, to evaluate link-bins of one to eight ∆s.
	minSamples int
}

func (c Config) withDefaults() Config {
	if c.BinSize == 0 {
		c.BinSize = time.Hour
	}
	if c.minSamples == 0 {
		c.minSamples = minSamples
	}
	if c.Registry == nil {
		c.Registry = ident.NewRegistry()
	}
	return c
}

// Alarm reports one abnormal delay change on one link in one bin.
type Alarm struct {
	Bin       time.Time
	Link      trace.LinkKey
	Observed  stats.MedianCI // this bin's median ∆ and CI
	Reference stats.MedianCI // the smoothed normal reference
	Deviation float64        // d(∆), Eq 6 — relative gap between the CIs
	DiffMS    float64        // |observed median − reference median|
	Probes    int            // probes contributing after filtering
	ASes      int            // distinct probe ASes after filtering
}

// Observation is the per-bin evaluation of one link, emitted to
// Config.Observer. Reference is the state before this bin updates it; it is
// invalid (N == 0) while the reference is still warming up.
type Observation struct {
	Bin       time.Time
	Link      trace.LinkKey
	Observed  stats.MedianCI
	Reference stats.MedianCI
	Anomalous bool
	Deviation float64
	Probes    int
	ASes      int
}

// probeASNFunc resolves a probe id to its AS number.
type probeASNFunc func(int) (ipmap.ASN, bool)

// refAlpha is alpha read from a variable, so that 1−α is rounded at run
// time from the float64 α, as the smoother this reference replaced did; a
// constant 1−alpha is rounded once from the exact value, which for some α
// differs in the last bit.
var refAlpha = alpha

// linkRef is the smoothed normal reference of one link (§4.2.4): the
// median and the CI bounds, each tracked with the same exponential
// smoothing m̄ ← α·m + (1−α)·m̄ (Eq 7). The reference is seeded with the
// median of the first warmupBins observations: v holds the first, w the
// second, and the third replaces v with the three medians. The zero value
// is an empty reference, embedded by value in the link's slot.
type linkRef struct {
	v [3]float64 // median, lower, upper
	w [3]float64 // the second warm-up observation
	n uint8      // observations so far, up to warmupBins
}

func (r *linkRef) ci() stats.MedianCI {
	if r.n < warmupBins {
		return stats.MedianCI{}
	}
	return stats.MedianCI{Median: r.v[0], Lower: r.v[1], Upper: r.v[2], N: 1}
}

func (r *linkRef) observe(ci stats.MedianCI) {
	x := [3]float64{ci.Median, ci.Lower, ci.Upper}
	switch r.n {
	case 0:
		r.v = x
	case 1:
		r.w = x
	case 2:
		for c := range x {
			m := [3]float64{r.v[c], r.w[c], x[c]}
			sort.Float64s(m[:]) // stats.Median's order, NaNs first
			r.v[c] = m[1]
		}
	default:
		a := refAlpha
		for c := range x {
			r.v[c] = a*x[c] + (1-a)*r.v[c]
		}
	}
	if r.n < warmupBins {
		r.n++
	}
}

// Sample is one differential-RTT contribution (§4.2.1) extracted from a
// traceroute result: the ∆ of one (near, far) reply combination, tagged with
// the probe and its AS. It is ExtractSamples' unit; detectors and the
// sharded engine keep Column RTTs and Log records instead.
type Sample struct {
	Link  ident.LinkID
	Probe int32
	ASN   ipmap.ASN
	Delta float64
}

// ExtractSamples decomposes one result into its differential RTT samples
// (§4.2.1): for adjacent hops X, Y every combination RTT(P→y) − RTT(P→x)
// over the replies is one ∆ sample of the link (x, y), giving one to nine
// samples per probe and link. Results from probes with no resolvable AS
// yield nothing, since the §4.3 diversity filter cannot place them. It is
// ExtractView over the interner's scratch view, sample by sample.
func ExtractSamples(in *ident.Interner, r trace.Result, probeASN func(int) (ipmap.ASN, bool), fn func(Sample)) {
	asn, ok := probeASN(r.PrbID)
	if !ok {
		return
	}
	s := Sample{Probe: int32(r.PrbID), ASN: asn}
	v := in.ScratchView(&r)
	ExtractView(in, v, func(link ident.LinkID, i, j, k int) {
		s.Link = link
		near := v.RTT[i]
		for _, f := range v.RTT[j:k] {
			s.Delta = f - near
			fn(s)
		}
	})
}

// ExtractView is the extraction kernel. For every pair of hops with
// consecutive TTLs it visits the (near reply, far reply) combinations
// near-major, skipping timeouts and self-loops, and calls fn once per near
// reply i and stretch [j, k) of far replies from one responder, as indices
// into v's reply columns: the ∆ samples of link are v.RTT[j:k] − v.RTT[i],
// in order. Links are interned through the caller's Interner, whose
// registry must have issued the view's ids; the kernel owns no other state.
func ExtractView(in *ident.Interner, v *trace.View, fn func(link ident.LinkID, i, j, k int)) {
	for hi := 0; hi+1 < len(v.Hops); hi++ {
		near, far := v.Hops[hi], v.Hops[hi+1]
		if near.TTL >= far.TTL || far.TTL != near.TTL+1 {
			continue // not adjacent, also when TTL+1 wraps
		}
		for i := near.Start; i < near.End; i++ {
			a := v.From[i]
			if a == 0 {
				continue
			}
			for j := far.Start; j < far.End; {
				b := v.From[j]
				k := j + 1
				for k < far.End && v.From[k] == b {
					k++
				}
				if b != 0 && b != a {
					fn(in.Link(ident.AddrID(a), ident.AddrID(b)), int(i), int(j), int(k))
				}
				j = k
			}
		}
	}
}

// probeRun is one probe's stretch of a link-bin's rebuilt ∆ column,
// column[start:end]. A probe returning to the link after another's samples
// opens a new run.
type probeRun struct {
	probe      int32
	asn        ipmap.ASN
	start, end int32
}

// linkState is the per-link record a slot holds: the link's reference,
// never its samples (those live in the open bin's Column) nor its
// addresses (the registry resolves those for what the close reports). A
// slot is created when its link's first record joins the log, and lives for
// the whole run: like the paper, the detector keeps every link's reference.
type linkState struct {
	ref linkRef
}

// chain is a slot's records in the open bin: the log indices of its first
// record and, plus one so that the zero chain is an untouched slot, of its
// last.
type chain struct {
	head, tail int32
}

// asTally counts one AS's distinct probes in the link-bin of mark.
type asTally struct {
	mark   uint32
	probes int32
}

// probeGroup is one probe's runs in the probe-sorted run order of one
// link-bin: ord[start:end] index its runs, in arrival order.
type probeGroup struct {
	probe      int32
	asn        ipmap.ASN
	start, end int32
}

// asBucket groups the indices of one AS's probeGroups (probe-ascending),
// the unit the §4.3 dropping loop removes probes from.
type asBucket struct {
	asn    ipmap.ASN
	groups []int32 // indices into the groups scratch
}

// Detector is the streaming delay-change detector. Feed chronologically
// ordered results with Observe; alarms for a bin are returned when the
// stream crosses into the next bin (and by Flush at end of stream).
// Detector is not safe for concurrent use.
type Detector struct {
	cfg      Config
	reg      *ident.Registry
	intern   *ident.Interner
	probeASN probeASNFunc

	// Probe dropping (§4.3) draws from a PCG reseeded per (link, bin) from
	// cfg.Seed, so a link's random decisions depend only on the link, the
	// bin and the seed — never on how many other links were evaluated
	// first. This is what lets N shard-local detectors reproduce the
	// single-detector output bit for bit.
	pcg *rand.PCG
	rng *rand.Rand

	clock timeseries.Clock

	// The open bin: every record ObserveView and IngestLog appended since
	// the last close, the column they point into (own, or the engine's
	// after ShareColumn), and the merge state of the view being extracted.
	log Log
	own Column
	col *Column
	rec Recorder

	// Per-link state. LinkIDs are global to the registry while a sharded
	// detector owns only ~1/W of the links, so a dense per-detector slot
	// table (slotOf: LinkID → index into links, −1 when unowned; 4 bytes
	// per global ID) keeps the linkState records — a 3-value reference
	// each, in a slice grown by an eighth — scaled to the links this
	// detector actually ingests.
	slotOf []int32
	links  []linkState

	// The open bin grouped by link as its records arrive (chain):
	// chains[slot] are a slot's first and last record in the bin, and
	// next[i] the log index of the record after record i on its link's
	// chain, −1 after the last. log.recs[:len(next)] are chained.
	// binLinks are the bin's links, in order of first record until the
	// close sorts them into (Near, Far) address order.
	chains   []chain
	next     []int32
	binLinks []ident.LinkID

	// Bin-close scratch, reused across bins so steady-state close is
	// alloc-free. colBuf/runBuf are one link-bin's rebuilt ∆ column and
	// probe runs. count tallies a link-bin's probes for §4.3 in probeMark
	// (by column probe number) and asTally (by column AS number), which
	// hold the mark of the link-bin that last counted an entry, and lists
	// the link-bin's AS numbers in binASes.
	colBuf    []float64
	runBuf    []probeRun
	mark      uint32
	probeMark []uint32
	asTally   []asTally
	binASes   []int32
	countsBuf []int
	// The scratch of a link-bin §4.3 thins: lkeyBuf/ltmpBuf are the
	// per-link radix scratch reused by groupRuns and filterDiversity (their
	// decoded permutations land in ordBuf/idxBuf, so the key buffers are
	// dead between uses).
	lkeyBuf    []uint64
	ltmpBuf    []uint64
	ordBuf     []int32
	groupBuf   []probeGroup
	idxBuf     []int32
	bucketBuf  []asBucket
	samplesBuf []float64

	// Cumulative bin-close accounting (CloseStats).
	binsClosed    int
	linksClosed   int
	linksDropped  int
	linksRejected int
	kernelSamples int64
	closeDur      time.Duration
}

// CloseStats is cumulative bin-close activity: how much work flowed
// through the close-time statistics kernels and how long it took. It backs
// the cmd/pinpoint -binclose-stats summary so detector-side performance is
// visible without a profiler.
type CloseStats struct {
	Bins     int           // bins closed
	Links    int           // link-bins evaluated (after diversity filtering)
	Dropped  int           // link-bins §4.3 removed ≥ 1 probe from (survivors gathered into scratch)
	Rejected int           // link-bins failing the minASes criterion
	Samples  int64         // ∆ samples fed through the median/CI kernels
	Dur      time.Duration // wall time spent closing bins
}

// CloseStats returns the detector's cumulative bin-close accounting.
func (d *Detector) CloseStats() CloseStats {
	return CloseStats{
		Bins: d.binsClosed, Links: d.linksClosed, Dropped: d.linksDropped, Rejected: d.linksRejected,
		Samples: d.kernelSamples, Dur: d.closeDur,
	}
}

// NewDetector returns a Detector with the given configuration; probeASN
// resolves probe ids to AS numbers (unresolvable probes are ignored, since
// diversity filtering is impossible without an AS).
func NewDetector(cfg Config, probeASN func(int) (ipmap.ASN, bool)) *Detector {
	cfg = cfg.withDefaults()
	pcg := rand.NewPCG(cfg.Seed, 0x5ca1ab1e)
	d := &Detector{
		cfg:      cfg,
		reg:      cfg.Registry,
		intern:   ident.NewInterner(cfg.Registry),
		probeASN: probeASN,
		pcg:      pcg,
		rng:      rand.New(pcg),
		clock:    timeseries.NewClock(cfg.BinSize),
	}
	d.col = &d.own
	return d
}

// Config returns the effective (default-filled) configuration.
func (d *Detector) Config() Config { return d.cfg }

// Registry returns the identity registry the detector interns through.
func (d *Detector) Registry() *ident.Registry { return d.reg }

// LinksSeen returns how many distinct links ever produced ∆ samples — the
// paper's "we monitored delays for 262k IPv4 links" statistic. A record
// gives its link a slot as it arrives, and every link keeps its slot.
func (d *Detector) LinksSeen() int { return len(d.links) }

// Observe is ObserveView over the detector's scratch view.
func (d *Detector) Observe(r trace.Result) []Alarm {
	return d.ObserveView(d.intern.ScratchView(&r))
}

// ObserveView ingests one traceroute result in its interned form (ids from
// the detector's registry). When the result's bin is newer than the open
// one, the open bin is evaluated first and its alarms returned. Results
// older than the open bin are folded into it (timeseries.Clock).
func (d *Detector) ObserveView(v *trace.View) []Alarm {
	var alarms []Alarm
	if closed, ok := d.clock.Advance(v.Time); ok {
		alarms = d.closeBin(closed)
	}
	if asn, ok := d.probeASN(v.Prb); ok {
		d.rec.Begin(d.col, v, asn)
		ExtractView(d.intern, v, d.logRTTs)
		d.chain()
	}
	return alarms
}

// logRTTs is ObserveView's sink: one callback joins the open bin's log.
func (d *Detector) logRTTs(link ident.LinkID, i, j, k int) {
	d.rec.Record(&d.log, link, i, j, k)
}

// Flush evaluates and clears the currently open bin. Call at end of stream.
func (d *Detector) Flush() []Alarm {
	if closed, ok := d.clock.Close(); ok {
		return d.closeBin(closed)
	}
	return nil
}

// BeginBin opens the bin the next IngestLog calls belong to, when it is
// later than the open one. It is the sharded engine's entry point: the
// engine's clock decides closes and the engine calls Flush, so BeginBin
// never evaluates. Bins are bin starts (timeseries.Bin).
func (d *Detector) BeginBin(bin time.Time) { d.clock.Begin(bin) }

// IngestLog appends l, records of the open bin over the detector's column
// (ShareColumn), to its log. Together with ShareColumn, BeginBin and Flush
// it forms the shard-scoped API: an engine shard is handed the records of
// the links that hash to it, filled by the same Recorder rule ObserveView
// applies, and the per-(link, bin) seeded probe dropping guarantees the
// shard reproduces exactly what a single detector would have decided for
// those links. In steady state this is one copy of 20-byte records into a
// recycled buffer and their chaining — no RTT, no map, no alloc.
func (d *Detector) IngestLog(l *Log) {
	d.log.recs = append(ident.Grow(d.log.recs, len(l.recs)), l.recs...)
	d.chain()
}

// chain appends the log's unchained records to their links' chains, giving
// a link its slot at its first record.
func (d *Detector) chain() {
	recs := d.log.recs
	n := len(d.next)
	d.next = ident.Grow(d.next, len(recs)-n)[:len(recs)]
	for i := n; i < len(recs); i++ {
		si := d.slot(recs[i].link)
		c := &d.chains[si]
		if c.tail == 0 {
			c.head = int32(i)
			d.binLinks = append(d.binLinks, recs[i].link)
		} else {
			d.next[c.tail-1] = int32(i)
		}
		c.tail = int32(i) + 1
		d.next[i] = -1
	}
}

// ShareColumn makes c the column the detector's records point into, in
// place of its own: the sharded engine fills one column for all its shards
// and hands them only records. The detector reads c only while it closes a
// bin; the caller must not write c from a record's IngestLog until that
// bin's Flush returns, and resets it afterwards — the detector resets only
// its own column.
func (d *Detector) ShareColumn(c *Column) { d.col = c }

// slot returns the link's slot, creating it on first sight.
func (d *Detector) slot(link ident.LinkID) int32 {
	li := int(link)
	if li >= len(d.slotOf) {
		d.slotOf = ident.GrowTable(d.slotOf, li+1, -1)
	}
	if si := d.slotOf[li]; si >= 0 {
		return si
	}
	si := int32(len(d.links))
	d.links = append(ident.Grow(d.links, 1), linkState{})
	d.chains = append(ident.Grow(d.chains, 1), chain{})
	d.slotOf[li] = si
	return si
}

// count counts, over the records on slot si's chain, what §4.3's verdict
// reads: the link-bin's distinct probes, which it returns, and per AS its
// distinct probes (binASes, asTally). It reads only the records' probe
// headers, so a link-bin the verdict rejects — more than half the
// link-bins of a ddos bin, over a quarter of its ∆s — never has its ∆
// column built.
func (d *Detector) count(si int32) (probes int) {
	if d.mark++; d.mark == 0 { // wrapped: no entry may carry a current mark
		clear(d.probeMark)
		clear(d.asTally)
		d.mark = 1
	}
	// Both tables grow to the largest bin's probes and ASes, not beyond.
	mark, probeAS := d.mark, d.col.probeAS
	if n := len(probeAS) - len(d.probeMark); n > 0 {
		d.probeMark = append(d.probeMark, make([]uint32, n)...)
	}
	if n := len(d.col.asns) - len(d.asTally); n > 0 {
		d.asTally = append(d.asTally, make([]asTally, n)...)
	}
	recs, next, heads := d.log.recs, d.next, d.col.heads
	ases := d.binASes[:0]
	for ri := d.chains[si].head; ri >= 0; ri = next[ri] {
		p := heads[recs[ri].view].num
		if d.probeMark[p] == mark {
			continue
		}
		d.probeMark[p] = mark
		probes++
		a := probeAS[p]
		if t := &d.asTally[a]; t.mark != mark {
			*t = asTally{mark: mark}
			ases = append(ases, a)
		}
		d.asTally[a].probes++
	}
	d.binASes = ases
	return probes
}

// column rebuilds one link-bin's ∆ column from the records on slot si's
// chain into reused scratch: far − near, near-major, the sequence
// ExtractView's callbacks described, so the column is element for element
// the one arrival-order ingestion of every ∆ would have built. The 3×3 hop
// pair (Atlas's three packets per hop) is unrolled.
func (d *Detector) column(si int32) []float64 {
	recs, next, rtts := d.log.recs, d.next, d.col.rtts
	col := d.colBuf[:0]
	for ri := d.chains[si].head; ri >= 0; ri = next[ri] {
		r := &recs[ri]
		far := rtts[r.far : r.far+uint32(r.nFar)]
		nears := rtts[r.near : r.near+uint32(r.nNear)]
		if len(far) == 3 && len(nears) == 3 {
			n0, n1, n2 := nears[0], nears[1], nears[2]
			col = append(col, far[0]-n0, far[1]-n0, far[2]-n0, far[0]-n1, far[1]-n1, far[2]-n1, far[0]-n2, far[1]-n2, far[2]-n2)
		} else {
			col = slices.Grow(col, len(far)*len(nears))
			for _, near := range nears {
				for _, f := range far {
					col = append(col, f-near)
				}
			}
		}
	}
	d.colBuf = col
	return col
}

// probeRuns splits the column of slot si's chain into probe runs: a probe
// returning to the link after another's samples opens a new run. Only a
// link-bin §4.3 thins needs them.
func (d *Detector) probeRuns(si int32) []probeRun {
	recs, next, heads := d.log.recs, d.next, d.col.heads
	probeAS, asns := d.col.probeAS, d.col.asns
	runs, end := d.runBuf[:0], int32(0)
	for ri := d.chains[si].head; ri >= 0; ri = next[ri] {
		r := &recs[ri]
		start := end
		end += int32(r.nFar) * int32(r.nNear)
		if h := heads[r.view]; len(runs) == 0 || runs[len(runs)-1].probe != h.probe {
			runs = append(runs, probeRun{probe: h.probe, asn: asns[probeAS[h.num]], start: start})
		}
		runs[len(runs)-1].end = end
	}
	d.runBuf = runs
	return runs
}

// verdict is §4.3's decision on the link-bin column last counted: ok is
// false when its probes come from fewer than minASes ASes, and thin is true
// when the normalized entropy of their per-AS distribution is at most
// minEntropy, so that filterDiversity must drop probes. The counts enter
// the entropy ASN-ascending, the order of filterDiversity's buckets, so
// both compute the same bits. With the filter disabled every link-bin
// passes whole.
func (d *Detector) verdict() (ok, thin bool) {
	if d.cfg.DisableDiversityFilter {
		return true, false
	}
	ases, asns := d.binASes, d.col.asns
	if len(ases) < minASes {
		return false, false
	}
	// An insertion sort: a link-bin's probes come from a few ASes.
	for i := 1; i < len(ases); i++ {
		for j := i; j > 0 && asns[ases[j]] < asns[ases[j-1]]; j-- {
			ases[j], ases[j-1] = ases[j-1], ases[j]
		}
	}
	counts := d.countsBuf[:0]
	for _, a := range ases {
		counts = append(counts, int(d.asTally[a].probes))
	}
	d.countsBuf = counts[:0]
	return true, stats.NormalizedEntropy(counts) <= minEntropy
}

// closeBin runs steps 2–5 of §4.2 on the open bin, which starts at bin: it
// rebuilds each link's ∆ column from its chain and evaluates it, then
// empties the log, the chains and its own column.
func (d *Detector) closeBin(bin time.Time) []Alarm {
	t0 := time.Now()
	var alarms []Alarm
	// The close order is (Near, Far) address order. The probe-dropping step
	// consumes randomness keyed per link, and downstream consumers
	// accumulate floats in emission order, so it must stay exactly the
	// address order the pre-ID detector used — never the (run-dependent) ID
	// order.
	d.reg.SortLinks(d.binLinks)
	for _, id := range d.binLinks {
		si := d.slotOf[id]
		// §4.3 decides from the counts. The statistics below read the
		// samples as a multiset: unless §4.3 removes a probe they reorder
		// the rebuilt column in place, and only a link-bin that must lose
		// probes is grouped by probe, draws from the PRNG seeded for it,
		// and has its survivors gathered into a second scratch
		// (filterDiversity).
		probes := d.count(si)
		ases := len(d.binASes)
		ok, thin := d.verdict()
		if !ok {
			d.linksRejected++
			continue
		}
		col := d.column(si)
		samples := col
		if thin {
			runs := d.probeRuns(si)
			rord, groups := d.groupRuns(runs)
			d.reseed(d.reg.LinkKeyOf(id), bin)
			samples, probes, ases, _ = d.filterDiversity(col, runs, rord, groups)
		}
		if len(samples) < d.cfg.minSamples {
			continue
		}
		d.linksClosed++
		d.kernelSamples += int64(len(samples))
		var obs stats.MedianCI
		if d.cfg.UseMeanCI {
			// The ablation's Mean/Stddev accumulate floats in element order;
			// keep the historical full sort so its summation order (and thus
			// its rounding) stays bit-identical.
			sort.Float64s(samples)
			obs = stats.MeanCI(samples, z)
		} else {
			// Three order statistics, selected in O(n) — same MedianCI the
			// sorted path produced (stats.MedianWilsonSorted stays as the
			// fuzz-pinned oracle).
			obs = stats.MedianWilsonSelect(samples, z)
		}

		ref := &d.links[si].ref

		refCI := ref.ci()
		anomalous := false
		deviation := 0.0
		if refCI.Valid() {
			deviation = Deviation(obs, refCI)
			diff := math.Abs(obs.Median - refCI.Median)
			// Report only non-overlapping CIs with a median gap of at
			// least minDiffMS (§4.2.3's 1 ms rule of thumb).
			if deviation > 0 && diff >= minDiffMS {
				anomalous = true
				alarms = append(alarms, Alarm{
					Bin:       bin,
					Link:      d.reg.LinkKeyOf(id),
					Observed:  obs,
					Reference: refCI,
					Deviation: deviation,
					DiffMS:    diff,
					Probes:    probes,
					ASes:      ases,
				})
			}
		}
		if d.cfg.Observer != nil {
			d.cfg.Observer(Observation{
				Bin:       bin,
				Link:      d.reg.LinkKeyOf(id),
				Observed:  obs,
				Reference: refCI,
				Anomalous: anomalous,
				Deviation: deviation,
				Probes:    probes,
				ASes:      ases,
			})
		}
		// Step 5: update the reference with the latest values. The small α
		// keeps anomalous bins from dragging the reference along.
		ref.observe(obs)
	}

	for _, id := range d.binLinks {
		d.chains[d.slotOf[id]] = chain{}
	}
	d.binLinks, d.next = d.binLinks[:0], d.next[:0]
	d.log.Reset()
	d.own.Reset()
	d.binsClosed++
	d.closeDur += time.Since(t0)
	return alarms
}

// groupRuns groups a link-bin's runs by probe without moving them: it
// orders an index permutation by (probe, arrival index) — a total order over
// values that pack losslessly into a uint64 (sign-biased probe in the high
// word, arrival index in the low word), so an LSD radix sort over the packed
// keys replaces the comparison sort and the permutation decodes straight
// out of the keys' low words. Runs tile the ∆ column in arrival order, so
// this is the partition that sorting every sample by (probe, arrival) gives
// — probe-ascending groups, each probe's samples in arrival order.
func (d *Detector) groupRuns(runs []probeRun) ([]int32, []probeGroup) {
	keys := d.lkeyBuf[:0]
	for i := range runs {
		// XOR-biasing the int32 probe maps signed order onto unsigned order.
		keys = append(keys, uint64(uint32(runs[i].probe)^0x80000000)<<32|uint64(uint32(i)))
	}
	d.ltmpBuf = stats.RadixSortUint64(keys, d.ltmpBuf)
	ord := d.ordBuf[:0]
	for _, k := range keys {
		ord = append(ord, int32(uint32(k)))
	}
	d.lkeyBuf = keys[:0]
	groups := d.groupBuf[:0]
	for i := 0; i < len(ord); {
		p := runs[ord[i]].probe
		j := i + 1
		for j < len(ord) && runs[ord[j]].probe == p {
			j++
		}
		groups = append(groups, probeGroup{
			probe: p,
			asn:   runs[ord[i]].asn,
			start: int32(i),
			end:   int32(j),
		})
		i = j
	}
	d.ordBuf = ord
	d.groupBuf = groups
	return ord, groups
}

// appendGroup appends one probe group's ∆ samples, in arrival order.
func appendGroup(samples, col []float64, runs []probeRun, ord []int32, g probeGroup) []float64 {
	for _, ri := range ord[g.start:g.end] {
		r := runs[ri]
		samples = append(samples, col[r.start:r.end]...)
	}
	return samples
}

// reseed rebinds the probe-dropping PRNG to the (link, bin) about to be
// evaluated. The stream position never leaks into the draw sequence, so any
// partition of links across detectors reproduces the same decisions.
func (d *Detector) reseed(key trace.LinkKey, bin time.Time) {
	h1 := hash.Mix64(hash.Mix64(d.cfg.Seed, uint64(bin.Unix())), 0x5ca1ab1e)
	h2 := d.cfg.Seed
	near := key.Near.As16()
	far := key.Far.As16()
	for i := 0; i < 16; i += 8 {
		h1 = hash.Fold(h1, binary.BigEndian.Uint64(near[i:]), binary.BigEndian.Uint64(far[i:]))
		h2 = hash.Fold(h2, binary.BigEndian.Uint64(far[i:]), binary.BigEndian.Uint64(near[i:]))
	}
	d.pcg.Seed(h1, h2)
}

// filterDiversity applies §4.3: the link must be observed from at least
// minASes distinct ASes, and the probe-per-AS distribution must have
// normalized entropy above minEntropy — otherwise probes are randomly
// dropped from the most-represented AS until it does. It returns the
// surviving ∆ samples — col itself when every probe survives, else a copy
// in a second reusable scratch — and the contributing probe/AS counts; ok
// is false when the link fails the AS-count criterion. The close calls it
// only on a link-bin whose counts say §4.3 must drop probes (verdict);
// FuzzDiversityVerdict holds both to the same decisions.
// The dropping decisions are bit-identical to the map-based implementation:
// per-AS probe lists are probe-ascending and the most-represented AS breaks
// ties on the smallest ASN, so the PRNG sees the same draw sequence.
func (d *Detector) filterDiversity(col []float64, runs []probeRun, ord []int32, groups []probeGroup) (samples []float64, probes, ases int, ok bool) {
	// Bucket the probe groups per AS, ASN-ascending. Group indices within a
	// bucket are probe-ascending because groups already are: the radix key
	// packs (uint32 ASN, group index) so key order is exactly the old
	// comparator's (asn, index) total order, index doubling as the
	// deterministic tie-break.
	buckets := d.bucketBuf[:0]
	keys := d.lkeyBuf[:0]
	for gi := range groups {
		keys = append(keys, uint64(groups[gi].asn)<<32|uint64(uint32(gi)))
	}
	d.ltmpBuf = stats.RadixSortUint64(keys, d.ltmpBuf)
	idx := d.idxBuf[:0]
	for _, k := range keys {
		idx = append(idx, int32(uint32(k)))
	}
	d.lkeyBuf = keys[:0]
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && groups[idx[j]].asn == groups[idx[i]].asn {
			j++
		}
		buckets = append(buckets, asBucket{asn: groups[idx[i]].asn, groups: idx[i:j:j]})
		i = j
	}
	d.idxBuf = idx[:0]
	d.bucketBuf = buckets[:0]

	if d.cfg.DisableDiversityFilter {
		return col, len(groups), len(buckets), true
	}
	if len(buckets) < minASes {
		return nil, 0, 0, false
	}
	probes = len(groups)
	counts := d.countsBuf[:0]
	refresh := func() []int {
		counts = counts[:0]
		for _, b := range buckets {
			counts = append(counts, len(b.groups))
		}
		return counts
	}
	for stats.NormalizedEntropy(refresh()) <= minEntropy {
		// Find the most-represented AS (deterministic tie-break on ASN:
		// buckets are ASN-ascending and the comparison is strict).
		maxB := -1
		maxN := -1
		for bi := range buckets {
			if len(buckets[bi].groups) > maxN {
				maxN = len(buckets[bi].groups)
				maxB = bi
			}
		}
		if maxN <= 1 {
			// Cannot improve entropy further; §4.3's loop always
			// terminates before this in practice, but guard regardless.
			break
		}
		ids := buckets[maxB].groups
		drop := d.rng.IntN(len(ids))
		buckets[maxB].groups = append(ids[:drop], ids[drop+1:]...)
		probes--
	}
	d.countsBuf = counts[:0]
	// The loop never empties a bucket, so every AS still contributes.
	if probes == len(groups) {
		return col, probes, len(buckets), true
	}
	d.linksDropped++
	samples = d.samplesBuf[:0]
	for _, b := range buckets {
		for _, gi := range b.groups {
			samples = appendGroup(samples, col, runs, ord, groups[gi])
		}
	}
	d.samplesBuf = samples
	return samples, probes, len(buckets), true
}

// Deviation computes d(∆) of Eq 6: the gap between the observed and
// reference confidence intervals, normalized by the reference interval's
// own half-width on the crossed side. Overlapping intervals score 0.
func Deviation(obs, ref stats.MedianCI) float64 {
	const eps = 1e-3 // guards division when the reference CI is degenerate
	switch {
	case ref.Upper < obs.Lower:
		den := ref.Upper - ref.Median
		if den < eps {
			den = eps
		}
		return (obs.Lower - ref.Upper) / den
	case ref.Lower > obs.Upper:
		den := ref.Median - ref.Lower
		if den < eps {
			den = eps
		}
		return (ref.Lower - obs.Upper) / den
	default:
		return 0
	}
}
