// Package delay implements the paper's differential-RTT delay-change
// detection (§4): per 1-hour bin and per IP-level link it computes the
// differential RTT samples from every probe, filters links without enough
// probe diversity (§4.3), characterizes the distribution with the median and
// its Wilson-score confidence interval (§4.2.2), compares against an
// exponentially smoothed reference (§4.2.4), and reports anomalies with the
// deviation score d(∆) of Eq 6 (§4.2.3).
//
// The hot path flows interned IDs, not addresses: extraction walks a
// trace.View, interns every (near, far) pair through ident.Registry once
// and emits ∆ samples tagged with a dense LinkID; the detector keeps
// columnar per-link state in flat slices indexed by that ID. A link-bin is
// a column of ∆ values plus one 16-byte run per stretch of samples from one
// probe (§4.2.1's "one to nine" samples arrive back to back), both reusing
// their capacity across bins. Steady-state ingestion therefore performs no
// map writes and no allocations; addresses reappear only at bin close, where
// links are evaluated in reverse-resolved (Near, Far) order so the emitted
// alarms are bit-identical to the pre-ID implementation.
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

	// alpha is the exponential smoothing factor. The paper only says "a
	// small α value is preferable" (§4.2.4). 0.01 keeps a 2-hour, +100 ms
	// event from dragging the reference more than a couple of ms, which
	// bounds the post-event recovery tail of low-deviation alarms while
	// still adapting to genuine level shifts within a few days.
	alpha = 0.01
)

// Config parameterizes the detector. NewDetector fills a zero BinSize,
// MinSamples or Registry with the default noted on the field.
type Config struct {
	BinSize    time.Duration // analysis bin; paper: 1 hour
	MinSamples int           // minimum ∆ samples per link-bin; Appendix B: 9
	Seed       uint64        // seeds the random probe dropping of §4.3

	// Registry is the identity layer the detector interns links through.
	// Leave nil for a private registry (a standalone detector);
	// the engine injects its shared registry here so the LinkIDs
	// on routed samples resolve in every shard.
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
}

func (c Config) withDefaults() Config {
	if c.BinSize == 0 {
		c.BinSize = time.Hour
	}
	if c.MinSamples == 0 {
		c.MinSamples = 9
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

// linkRef is the smoothed normal reference of one link: the median and the
// CI bounds are each tracked with the same exponential smoothing (§4.2.4).
// It is embedded by value in the columnar link state.
type linkRef struct {
	median stats.EWMA
	lower  stats.EWMA
	upper  stats.EWMA
}

func (r *linkRef) ci() stats.MedianCI {
	if !r.median.Primed() {
		return stats.MedianCI{}
	}
	return stats.MedianCI{Median: r.median.Value(), Lower: r.lower.Value(), Upper: r.upper.Value(), N: 1}
}

func (r *linkRef) observe(ci stats.MedianCI) {
	r.median.Observe(ci.Median)
	r.lower.Observe(ci.Lower)
	r.upper.Observe(ci.Upper)
}

// Sample is one differential-RTT contribution (§4.2.1) extracted from a
// traceroute result: the ∆ of one (near, far) reply combination, tagged with
// the probe and its AS. It is what the sharded engine routes (it hashes the
// interned LinkID to pick the shard owning the link), not what a detector
// stores: IngestSample folds one probe's consecutive samples into a run.
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
	ExtractView(in, in.ScratchView(&r), func(link ident.LinkID, near float64, far []float64) {
		s.Link = link
		for _, f := range far {
			s.Delta = f - near
			fn(s)
		}
	})
}

// ExtractView is the extraction kernel. For every pair of hops with
// consecutive TTLs it visits the (near reply, far reply) combinations
// near-major, skipping timeouts and self-loops, and calls fn once per near
// reply and stretch of far replies from one responder: the ∆ samples of link
// are far[k] − near, in order. Links are interned through the caller's
// Interner, whose registry must have issued the view's ids; the kernel owns
// no other state.
func ExtractView(in *ident.Interner, v *trace.View, fn func(link ident.LinkID, near float64, far []float64)) {
	for hi := 0; hi+1 < len(v.Hops); hi++ {
		near, far := v.Hops[hi], v.Hops[hi+1]
		if far.TTL != near.TTL+1 {
			continue
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
					fn(in.Link(ident.AddrID(a), ident.AddrID(b)), v.RTT[i], v.RTT[j:k])
				}
				j = k
			}
		}
	}
}

// probeRun is one probe's stretch of a link-bin's ∆ column, deltas[start:end].
// A probe returning to the link after another's samples opens a new run.
type probeRun struct {
	probe      int32
	asn        ipmap.ASN
	start, end int32
}

// linkState is the columnar per-link record, indexed by ident.LinkID. The
// deltas and runs buffers are truncated (capacity kept) when a new bin first
// touches the link, so steady-state ingestion reuses the same backing
// arrays; runs tile deltas in arrival order. The reverse-resolved key is
// cached here at slot creation (a LinkID's address pair never changes), so
// bin close never goes back to the registry. A slot lives for the whole
// run: like the paper, the detector keeps every link's reference.
type linkState struct {
	epoch  uint32        // bin epoch of the deltas/runs buffers
	deltas []float64     // this bin's ∆ samples, arrival order
	runs   []probeRun    // who contributed which stretch of deltas
	hasRef bool          // ref initialized (link passed filtering once)
	isV4   bool          // both addresses are 4-byte: key64 is valid
	key    trace.LinkKey // reverse-resolved (Near, Far), cached once
	key64  uint64        // big-endian-packed (Near, Far) for the radix close order
	ref    linkRef
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
	epoch uint32 // distinguishes the open bin's entries from stale ones

	// Columnar state. LinkIDs are global to the registry while a sharded
	// detector owns only ~1/W of the links, so a dense per-detector slot
	// table (slotOf: LinkID → index into links, −1 when unowned; 4 bytes
	// per global ID) keeps the ~200-byte linkState records scaled to the
	// links this detector actually ingests.
	slotOf  []int32
	links   []linkState
	touched []ident.LinkID // links with samples in the open bin

	// The probe ObserveView is ingesting runs for.
	runProbe int32
	runASN   ipmap.ASN

	// Bin-close scratch, reused across bins so steady-state close is
	// alloc-free. closeKeys/closeOrd (+ their radix ping-pong buffers) hold
	// the link close-order permutation and stay live across the whole link
	// loop; lkeyBuf/ltmpBuf are the per-link radix scratch reused by
	// groupRuns and filterDiversity (their decoded permutations land in
	// ordBuf/idxBuf, so the key buffers are dead between uses).
	closeKeys  []uint64
	closeOrd   []int32
	closeTmpK  []uint64
	closeTmpV  []int32
	lkeyBuf    []uint64
	ltmpBuf    []uint64
	ordBuf     []int32
	groupBuf   []probeGroup
	idxBuf     []int32
	bucketBuf  []asBucket
	countsBuf  []int
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
	Dropped  int           // link-bins §4.3 removed ≥ 1 probe from (survivors copied out)
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
	return &Detector{
		cfg:      cfg,
		reg:      cfg.Registry,
		intern:   ident.NewInterner(cfg.Registry),
		probeASN: probeASN,
		pcg:      pcg,
		rng:      rand.New(pcg),
		clock:    timeseries.NewClock(cfg.BinSize),
		epoch:    1,
	}
}

// Config returns the effective (default-filled) configuration.
func (d *Detector) Config() Config { return d.cfg }

// Registry returns the identity registry the detector interns through.
func (d *Detector) Registry() *ident.Registry { return d.reg }

// LinksSeen returns how many distinct links ever produced ∆ samples — the
// paper's "we monitored delays for 262k IPv4 links" statistic. Every link
// gets its slot on its first sample and keeps it, so this is the slot count.
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
		d.runProbe, d.runASN = int32(v.Prb), asn
		ExtractView(d.intern, v, d.ingestRun)
	}
	return alarms
}

// Flush evaluates and clears the currently open bin. Call at end of stream.
func (d *Detector) Flush() []Alarm {
	if closed, ok := d.clock.Close(); ok {
		return d.closeBin(closed)
	}
	return nil
}

// BeginBin opens the bin the next IngestSample calls belong to, when it is
// later than the open one. It is the sharded engine's entry point: the
// engine's clock decides closes and the engine calls Flush, so BeginBin
// never evaluates. Bins are bin starts (timeseries.Bin).
func (d *Detector) BeginBin(bin time.Time) { d.clock.Begin(bin) }

// IngestSample folds one extracted ∆ sample into the open bin. Together with
// BeginBin and Flush it forms the shard-scoped API: an engine shard feeds
// only the samples whose link hashes to it, and the per-(link, bin) seeded
// probe dropping guarantees the shard reproduces exactly what a single
// detector would have decided for that link. Consecutive samples of one
// probe extend one run, so shards get ObserveView's link-bin layout. In
// steady state this is one epoch check and appends into recycled buffers —
// no map, no alloc.
func (d *Detector) IngestSample(s Sample) {
	ls := d.touch(s.Link)
	ls.deltas = append(ls.deltas, s.Delta)
	ls.extendRun(s.Probe, s.ASN)
}

// ingestRun is ObserveView's sink: ∆ samples far[k] − near of one link from
// the probe in runProbe, behind one slot lookup.
func (d *Detector) ingestRun(link ident.LinkID, near float64, far []float64) {
	ls := d.touch(link)
	deltas := ls.deltas
	for _, f := range far {
		deltas = append(deltas, f-near)
	}
	ls.deltas = deltas
	ls.extendRun(d.runProbe, d.runASN)
}

// extendRun attributes the deltas appended since the last run's end to
// probe, growing that run when it is the same probe's.
func (ls *linkState) extendRun(probe int32, asn ipmap.ASN) {
	n := len(ls.runs)
	if n == 0 || ls.runs[n-1].probe != probe {
		start := int32(0)
		if n > 0 {
			start = ls.runs[n-1].end
		}
		ls.runs = append(ls.runs, probeRun{probe: probe, asn: asn, start: start})
		n++
	}
	ls.runs[n-1].end = int32(len(ls.deltas))
}

// touch returns the link's state for the open bin: it creates the slot on
// first sight and, on the link's first sample of a bin, resets the bin
// buffers.
func (d *Detector) touch(link ident.LinkID) *linkState {
	li := int(link)
	if li >= len(d.slotOf) {
		d.slotOf = ident.GrowTable(d.slotOf, li+1, -1)
	}
	si := d.slotOf[li]
	if si < 0 {
		// Resolve the address pair once, at slot creation: every later bin
		// close reads the cached key instead of going through the registry's
		// read lock, and the packed big-endian form drives the radix close
		// order for IPv4 links.
		key := d.reg.LinkKeyOf(link)
		st := linkState{key: key}
		if key.Near.Is4() && key.Far.Is4() {
			n4, f4 := key.Near.As4(), key.Far.As4()
			st.key64 = uint64(binary.BigEndian.Uint32(n4[:]))<<32 | uint64(binary.BigEndian.Uint32(f4[:]))
			st.isV4 = true
		}
		si = int32(len(d.links))
		d.links = append(d.links, st)
		d.slotOf[li] = si
	}
	ls := &d.links[si]
	if ls.epoch != d.epoch {
		ls.epoch = d.epoch
		ls.deltas = ls.deltas[:0]
		ls.runs = ls.runs[:0]
		d.touched = append(d.touched, link)
	}
	return ls
}

// closeBin runs steps 2–5 of §4.2 on the accumulated bin, which starts at
// bin, and resets it.
func (d *Detector) closeBin(bin time.Time) []Alarm {
	t0 := time.Now()
	var alarms []Alarm
	// Deterministic iteration: links are evaluated in (Near, Far) address
	// order. The probe-dropping step consumes randomness keyed per link, and
	// downstream consumers accumulate floats in emission order, so the close
	// order must stay exactly the address order the pre-ID detector used —
	// never the (run-dependent) ID order. When every touched link is IPv4
	// (the normal case) the order comes from a radix sort over packed
	// big-endian (Near, Far) keys: two Is4 addresses compare by their 4-byte
	// big-endian value under netip.Addr.Compare (same BitLen, same v4-mapped
	// prefix), so uint64 key order ≡ the comparison order, and distinct
	// LinkIDs always pack to distinct keys. Any non-IPv4 link falls back to
	// the comparison sort on the cached keys.
	keys64 := d.closeKeys[:0]
	order := d.closeOrd[:0]
	allV4 := true
	for i, id := range d.touched {
		ls := &d.links[d.slotOf[id]]
		if !ls.isV4 {
			allV4 = false
			break
		}
		keys64 = append(keys64, ls.key64)
		order = append(order, int32(i))
	}
	if allV4 {
		d.closeTmpK, d.closeTmpV = stats.RadixSortUint64Pairs(keys64, order, d.closeTmpK, d.closeTmpV)
	} else {
		order = order[:0]
		for i := range d.touched {
			order = append(order, int32(i))
		}
		slices.SortFunc(order, func(a, b int32) int {
			ka := &d.links[d.slotOf[d.touched[a]]].key
			kb := &d.links[d.slotOf[d.touched[b]]].key
			if c := ka.Near.Compare(kb.Near); c != 0 {
				return c
			}
			return ka.Far.Compare(kb.Far)
		})
	}

	for _, ti := range order {
		ls := &d.links[d.slotOf[d.touched[ti]]]
		key := ls.key
		ord, groups := d.groupRuns(ls.runs)
		// The statistics below read the samples as a multiset, and the bin is
		// over for this link: unless §4.3 removes a probe they reorder the
		// link's own ∆ column in place, and only a link-bin that lost probes
		// has its survivors copied out (filterDiversity).
		d.reseed(key, bin)
		samples, probes, ases, ok := d.filterDiversity(ls, ord, groups)
		if !ok {
			d.linksRejected++
			continue
		}
		if len(samples) < d.cfg.MinSamples {
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

		if !ls.hasRef {
			ls.hasRef = true
			ls.ref = linkRef{
				median: stats.MakeEWMA(alpha, warmupBins),
				lower:  stats.MakeEWMA(alpha, warmupBins),
				upper:  stats.MakeEWMA(alpha, warmupBins),
			}
		}
		ref := &ls.ref

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
					Link:      key,
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
				Link:      key,
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

	d.closeKeys = keys64[:0]
	d.closeOrd = order[:0]
	d.touched = d.touched[:0]
	d.epoch++
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
func (ls *linkState) appendGroup(samples []float64, ord []int32, g probeGroup) []float64 {
	for _, ri := range ord[g.start:g.end] {
		r := ls.runs[ri]
		samples = append(samples, ls.deltas[r.start:r.end]...)
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
// surviving ∆ samples — the link's own column when every probe survives,
// which is every link-bin of both benchmark fixtures, else a copy in the
// reusable scratch — and the contributing probe/AS counts; ok is false when
// the link fails the AS-count criterion.
// The dropping decisions are bit-identical to the map-based implementation:
// per-AS probe lists are probe-ascending and the most-represented AS breaks
// ties on the smallest ASN, so the PRNG sees the same draw sequence.
func (d *Detector) filterDiversity(ls *linkState, ord []int32, groups []probeGroup) (samples []float64, probes, ases int, ok bool) {
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
		return ls.deltas, len(groups), len(buckets), true
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
		return ls.deltas, probes, len(buckets), true
	}
	d.linksDropped++
	samples = d.samplesBuf[:0]
	for _, b := range buckets {
		for _, gi := range b.groups {
			samples = ls.appendGroup(samples, ord, groups[gi])
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
