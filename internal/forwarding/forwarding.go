// Package forwarding implements the paper's packet-forwarding model and
// forwarding-anomaly detection (§5): for every (router, traceroute target)
// pair it learns the usual next-hop packet-count vector — including an
// "unresponsive" bucket for packets that vanish — smooths it exponentially
// into a reference (Eq 8), flags bins whose pattern anti-correlates with the
// reference (ρ(F, F̄) < τ, §5.2.1), and attributes the change to individual
// next hops with the responsibility metric rᵢ (Eq 9, §5.2.2).
//
// Like the delay detector, the hot path flows interned IDs: extraction
// interns routers, destinations and next hops through ident.Registry and
// emits contributions tagged with a dense FlowID; the detector keeps
// columnar per-flow state in flat slices indexed by that ID: a small record
// whose current pattern and smoothed reference are (AddrID, count) vectors
// in two detector-owned hop arenas, reused across bins. Flows are evaluated
// at bin close in (Router, Dst) address order, which the registry sorts
// (ident.Registry.SortFlows), so alarms are bit-identical to the pre-ID
// implementation in both families; addresses are resolved only for what
// an alarm or an Observer reports.
package forwarding

import (
	"math"
	"net/netip"
	"slices"
	"time"

	"pinpoint/internal/ident"
	"pinpoint/internal/stats"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

// Unresponsive is the pseudo next-hop address bucketing packets that got no
// reply beyond a router (the "Z" node of Fig 4). The zero netip.Addr is
// never a real responder, so the bucket cannot collide; it interns to
// ident.ZeroAddr.
var Unresponsive = netip.Addr{}

// The forwarding model's parameters; no caller varies them.
const (
	alpha = 0.01  // exponential smoothing factor: "small α", §5.1, mirroring the delay detector
	tau   = -0.25 // anomaly threshold on ρ, §5.2.1

	// minPackets is the minimum number of packets a (router, target)
	// pattern needs in a bin to be evaluated; tiny vectors make Pearson
	// meaningless. The paper does not state a value: 9 is three traceroutes.
	minPackets = 9
)

// Config parameterizes the detector. NewDetector fills a zero BinSize or
// Registry with the default noted on the field.
type Config struct {
	BinSize time.Duration // analysis bin; paper: 1 hour

	// Registry is the identity layer the detector interns flows through.
	// Leave nil for a private registry (a standalone detector);
	// the engine injects its shared registry here so the FlowIDs
	// on routed contributions resolve in every shard.
	Registry *ident.Registry

	// Observer, when non-nil, receives every evaluated pattern (anomalous
	// or not). Behind an engine with several workers every shard's
	// detector calls it, from the shard goroutines: the engine serializes
	// the calls (together with the delay Observer's), their cross-shard
	// order is unspecified.
	Observer func(Observation)
}

func (c Config) withDefaults() Config {
	if c.BinSize == 0 {
		c.BinSize = time.Hour
	}
	if c.Registry == nil {
		c.Registry = ident.NewRegistry()
	}
	return c
}

// HopScore is one next hop of an anomalous pattern with its responsibility.
type HopScore struct {
	Hop            netip.Addr // Unresponsive for the loss bucket
	Responsibility float64    // rᵢ of Eq 9, in [−1, 1]
	Count          float64    // packets this bin
	RefCount       float64    // packets in the reference
}

// Alarm reports one anomalous forwarding pattern.
type Alarm struct {
	Bin    time.Time
	Router netip.Addr
	Dst    netip.Addr
	Rho    float64 // ρ(F, F̄) < τ
	Hops   []HopScore
}

// MaxResponsibility returns the hop with the largest |rᵢ| — the next hop the
// paper points at when localizing the change. ok is false for empty alarms.
func (a Alarm) MaxResponsibility() (HopScore, bool) {
	if len(a.Hops) == 0 {
		return HopScore{}, false
	}
	best := a.Hops[0]
	for _, h := range a.Hops[1:] {
		if math.Abs(h.Responsibility) > math.Abs(best.Responsibility) {
			best = h
		}
	}
	return best, true
}

// Observation is the per-bin evaluation of one pattern, emitted to
// Config.Observer.
type Observation struct {
	Bin       time.Time
	Router    netip.Addr
	Dst       netip.Addr
	Rho       float64 // NaN when the correlation is undefined
	Anomalous bool
	Packets   float64
}

// hopCount is one component of a columnar next-hop packet-count vector.
type hopCount struct {
	hop ident.AddrID
	v   float64
}

// Contribution is one extracted packet observation: W packets crossing the
// flow's router toward its destination went to next hop Hop
// (ident.ZeroAddr for lost packets). Touch marks a router observed with no
// attributable packets this result — it still instantiates the flow's
// pattern, exactly as the inline ingest always did, so reference seeding is
// unchanged. The flow is carried as an interned FlowID and the router as a
// RouterID; the sharded engine hashes the RouterID to pick the shard owning
// the router, so all flows of one router stay colocated.
type Contribution struct {
	Flow   ident.FlowID
	Router ident.RouterID
	Hop    ident.AddrID
	W      float64
	Touch  bool
}

// ExtractContributions decomposes one result into next-hop contributions
// (§5.1): ExtractView over the interner's scratch view.
func ExtractContributions(in *ident.Interner, r trace.Result, fn func(Contribution)) {
	ExtractView(in, in.ScratchView(&r), fn)
}

// ExtractView is the extraction kernel (§5.1): for every responsive hop it
// records where the following hop's packets went — to a responsive next hop
// or into the unresponsive bucket. ECMP-split near hops contribute to each
// responder's model with weight 1/len(responders) so far-hop packets are
// not double counted. Routers and flows are interned through the caller's
// Interner, whose registry must have issued the view's ids; the kernel owns
// no other state.
func ExtractView(in *ident.Interner, v *trace.View, fn func(Contribution)) {
	dst := ident.AddrID(v.Dst)
	for hi := 0; hi+1 < len(v.Hops); hi++ {
		near, far := v.Hops[hi], v.Hops[hi+1]
		if near.TTL >= far.TTL || far.TTL != near.TTL+1 {
			continue // not adjacent, also when TTL+1 wraps
		}
		// Distinct near responders, first-seen order. Atlas sends three
		// packets per hop, so the stack buffer covers every realistic result.
		var rbuf [8]uint32
		routers := rbuf[:0]
		for _, a := range v.From[near.Start:near.End] {
			if a != 0 && !slices.Contains(routers, a) {
				routers = append(routers, a)
			}
		}
		w := 1.0 / float64(len(routers))
		for _, router := range routers {
			c := Contribution{Flow: in.Flow(ident.AddrID(router), dst), Router: in.Router(ident.AddrID(router)), W: w}
			emitted := false
			for _, b := range v.From[far.Start:far.End] {
				if b == router {
					continue // self-loop artifact
				}
				c.Hop = ident.AddrID(b) // ZeroAddr: the packet got no reply
				fn(c)
				emitted = true
			}
			if !emitted {
				fn(Contribution{Flow: c.Flow, Router: c.Router, Touch: true})
			}
		}
	}
}

// span is a vector in one of the detector's hop arenas: arena[off:off+n].
// Both fields are uint32, so no count of next hops can wrap.
type span struct{ off, n uint32 }

// flowState is the columnar per-flow record, indexed by ident.FlowID, with
// no pointer in it. cur spans this bin's pattern in the pattern arena
// and is emptied when a new bin first touches the flow; ref spans the
// smoothed reference in the reference arena, empty until seeded. The
// flow's addresses are resolved only for an alarm or an Observer call. A
// slot lives for the whole run: like the paper, the detector keeps every
// flow's reference.
type flowState struct {
	epoch  uint32
	hasRef bool
	cur    span // this bin's pattern, in Detector.pat
	ref    span // smoothed reference (Eq 8), in Detector.refs
}

// Detector is the streaming forwarding-anomaly detector. Feed
// chronologically ordered results with Observe; alarms for a bin are
// returned when the stream crosses into the next bin (and by Flush).
// Detector is not safe for concurrent use.
type Detector struct {
	cfg    Config
	reg    *ident.Registry
	intern *ident.Interner

	clock timeseries.Clock
	epoch uint32

	// Columnar state. FlowIDs are global to the registry while a sharded
	// detector owns only ~1/W of the flows, so a dense per-detector slot
	// table (slotOf: FlowID → index into flows, −1 when unowned) keeps the
	// flowState records scaled to the flows this detector actually
	// ingests.
	slotOf  []int32
	flows   []flowState
	touched []ident.FlowID // flows with contributions in the open bin

	// The hop arenas the flows' spans point into. pat holds the open bin's
	// patterns and is emptied at every close. refs holds every reference: a
	// reference that outgrows its span moves to the arena's end, leaving
	// refDead dead entries behind, and a close compacts the arena once
	// they exceed a quarter of the live ones.
	pat     []hopCount
	refs    []hopCount
	refDead int

	routerSeen  []bool // indexed by ident.RouterID
	routersSeen int

	// Reference statistics, maintained incrementally: references are never
	// dropped and reference hops are only ever added (absent hops decay
	// toward zero but stay), so the counters never need a rescan.
	refModels   int
	refNextHops int

	// Bin-close scratch, reused across bins so steady-state close is
	// alloc-free: the union resolution buffer and the Pearson vectors.
	unionBuf []unionHop
	fBuf     []float64
	fbarBuf  []float64

	// Cumulative bin-close accounting (CloseStats).
	binsClosed  int
	flowsClosed int
	closeDur    time.Duration
}

// CloseStats is cumulative bin-close activity, the forwarding twin of
// delay.CloseStats: how many patterns were evaluated against their
// reference and how long closing took.
type CloseStats struct {
	Bins  int           // bins closed
	Flows int           // flow-bins evaluated against a reference
	Dur   time.Duration // wall time spent closing bins
}

// CloseStats returns the detector's cumulative bin-close accounting.
func (d *Detector) CloseStats() CloseStats {
	return CloseStats{Bins: d.binsClosed, Flows: d.flowsClosed, Dur: d.closeDur}
}

// unionHop is one next hop in the union of a bin's pattern and reference,
// resolved for the address-ordered Pearson vectors.
type unionHop struct {
	addr    netip.Addr
	f, fbar float64
}

// NewDetector returns a Detector with the given configuration.
func NewDetector(cfg Config) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg:    cfg,
		reg:    cfg.Registry,
		intern: ident.NewInterner(cfg.Registry),
		clock:  timeseries.NewClock(cfg.BinSize),
		epoch:  1,
	}
}

// Config returns the effective (default-filled) configuration.
func (d *Detector) Config() Config { return d.cfg }

// Registry returns the identity registry the detector interns through.
func (d *Detector) Registry() *ident.Registry { return d.reg }

// RoutersSeen returns how many distinct router addresses have forwarding
// models — the paper's "packet forwarding models for 170k IPv4 router IPs".
func (d *Detector) RoutersSeen() int { return d.routersSeen }

// AvgNextHops returns the mean number of responsive next hops across all
// references — the paper's "on average forwarding models contain four
// different next hops". The unresponsive bucket is not counted.
func (d *Detector) AvgNextHops() float64 {
	models, hops := d.RefStats()
	if models == 0 {
		return 0
	}
	return float64(hops) / float64(models)
}

// RefStats returns the raw counts behind AvgNextHops — how many reference
// models exist and their total responsive next hops — so the sharded engine
// can average across shard-local detectors.
func (d *Detector) RefStats() (models, nextHops int) {
	return d.refModels, d.refNextHops
}

// Observe is ObserveView over the detector's scratch view.
func (d *Detector) Observe(r trace.Result) []Alarm {
	return d.ObserveView(d.intern.ScratchView(&r))
}

// ObserveView ingests one traceroute result in its interned form (ids from
// the detector's registry), returning the previous bin's alarms when the
// result crosses a bin boundary (timeseries.Clock).
func (d *Detector) ObserveView(v *trace.View) []Alarm {
	var alarms []Alarm
	if closed, ok := d.clock.Advance(v.Time); ok {
		alarms = d.closeBin(closed)
	}
	ExtractView(d.intern, v, d.IngestContribution)
	return alarms
}

// Flush evaluates and clears the currently open bin.
func (d *Detector) Flush() []Alarm {
	if closed, ok := d.clock.Close(); ok {
		return d.closeBin(closed)
	}
	return nil
}

// BeginBin opens the bin the next IngestContribution calls belong to, when
// it is later than the open one. It is the sharded engine's entry point:
// the engine's clock decides closes and the engine calls Flush, so BeginBin
// never evaluates. Bins are bin starts (timeseries.Bin).
func (d *Detector) BeginBin(bin time.Time) { d.clock.Begin(bin) }

// IngestContribution folds one extracted contribution into the open bin.
// Together with BeginBin and Flush it forms the shard-scoped API: an engine
// shard feeds only the contributions whose router hashes to it. In steady
// state this is one epoch check plus a scan of the flow's few next-hop
// slots — no map, no alloc.
func (d *Detector) IngestContribution(c Contribution) {
	fi := int(c.Flow)
	if fi >= len(d.slotOf) {
		d.slotOf = ident.GrowTable(d.slotOf, fi+1, -1)
	}
	si := d.slotOf[fi]
	if si < 0 {
		si = int32(len(d.flows))
		d.flows = append(ident.Grow(d.flows, 1), flowState{})
		d.slotOf[fi] = si
	}
	fs := &d.flows[si]
	if fs.epoch != d.epoch {
		fs.epoch = d.epoch
		fs.cur = span{off: uint32(len(d.pat))}
		d.touched = append(d.touched, c.Flow)
		ri := int(c.Router)
		if ri >= len(d.routerSeen) {
			d.routerSeen = ident.GrowTable(d.routerSeen, ri+1, false)
		}
		if !d.routerSeen[ri] {
			d.routerSeen[ri] = true
			d.routersSeen++
		}
	}
	if c.Touch {
		return
	}
	cur := d.curOf(fs)
	for i := range cur {
		if cur[i].hop == c.Hop {
			cur[i].v += c.W
			return
		}
	}
	if int(fs.cur.off+fs.cur.n) != len(d.pat) {
		// Another flow's pattern follows this one: move it to the end.
		fs.cur.off = uint32(len(d.pat))
		d.pat = append(ident.Grow(d.pat, len(cur)+1), cur...)
	}
	d.pat = append(ident.Grow(d.pat, 1), hopCount{hop: c.Hop, v: c.W})
	fs.cur.n++
}

// hasHop reports whether v counts packets to hop.
func hasHop(v []hopCount, hop ident.AddrID) bool {
	for i := range v {
		if v[i].hop == hop {
			return true
		}
	}
	return false
}

// curOf and refOf return a flow's pattern and reference vectors.
func (d *Detector) curOf(fs *flowState) []hopCount {
	return d.pat[fs.cur.off : fs.cur.off+fs.cur.n]
}

func (d *Detector) refOf(fs *flowState) []hopCount {
	return d.refs[fs.ref.off : fs.ref.off+fs.ref.n]
}

// growRef makes room for k more entries at the end of fs's reference: in
// place when the span ends the arena, else by moving the reference to the
// arena's end, which leaves its old entries dead.
func (d *Detector) growRef(fs *flowState, k int) {
	if int(fs.ref.off+fs.ref.n) != len(d.refs) {
		ref := d.refOf(fs)
		fs.ref.off = uint32(len(d.refs))
		d.refs = append(ident.Grow(d.refs, len(ref)+k), ref...)
		d.refDead += len(ref)
	}
	d.refs = ident.Grow(d.refs, k)
}

// compactRefs copies every live reference into a fresh arena, in slot
// order, once the dead entries exceed a quarter of the live ones. Every
// move leaves the entries it copied dead, so the copies a compaction costs
// are paid for by the moves that made it due.
func (d *Detector) compactRefs() {
	live := len(d.refs) - d.refDead
	if d.refDead <= live/4 {
		return
	}
	refs := make([]hopCount, 0, live+live/8)
	for i := range d.flows {
		fs := &d.flows[i]
		ref := d.refOf(fs)
		fs.ref.off = uint32(len(refs))
		refs = append(refs, ref...)
	}
	d.refs, d.refDead = refs, 0
}

// closeBin evaluates every pattern of the bin starting at bin against its
// reference and then folds the bin into the reference (Eq 8).
func (d *Detector) closeBin(bin time.Time) []Alarm {
	t0 := time.Now()
	var alarms []Alarm
	// Deterministic iteration: flows are evaluated in (router, dst) address
	// order — the pre-ID emission order the downstream single-writer
	// aggregation depends on.
	d.reg.SortFlows(d.touched)
	for _, id := range d.touched {
		fs := &d.flows[d.slotOf[id]]
		cur := d.curOf(fs)

		total := 0.0
		for _, h := range cur {
			total += h.v
		}

		if fs.hasRef && total >= minPackets {
			d.flowsClosed++
			rho, scores := d.compare(cur, d.refOf(fs))
			anomalous := !math.IsNaN(rho) && rho < tau
			if anomalous || d.cfg.Observer != nil {
				router, dst := d.reg.FlowAddrsOf(id)
				if anomalous {
					alarms = append(alarms, Alarm{
						Bin:    bin,
						Router: router,
						Dst:    dst,
						Rho:    rho,
						Hops:   scores,
					})
				}
				if d.cfg.Observer != nil {
					d.cfg.Observer(Observation{
						Bin: bin, Router: router, Dst: dst,
						Rho: rho, Anomalous: anomalous, Packets: total,
					})
				}
			}
		}

		// Reference update (Eq 8): F̄ ← αF + (1−α)F̄ over the union of next
		// hops; hops unseen this bin decay, hops seen for the first time
		// enter from zero. The first bin seeds the reference directly.
		if !fs.hasRef {
			fs.ref = span{off: uint32(len(d.refs)), n: uint32(len(cur))}
			d.refs = append(ident.Grow(d.refs, len(cur)), cur...)
			fs.hasRef = true
			d.refModels++
			for _, h := range cur {
				if h.hop != ident.ZeroAddr {
					d.refNextHops++
				}
			}
			continue
		}
		// Hops seen for the first time join the reference in pattern order.
		// The pattern's hops are distinct, so membership in the reference as
		// it was decides each, wherever growRef moved it.
		ref := d.refOf(fs)
		added := 0
		for _, h := range cur {
			if !hasHop(ref, h.hop) {
				added++
			}
		}
		if added > 0 {
			d.growRef(fs, added)
			for _, h := range cur {
				if !hasHop(ref, h.hop) {
					d.refs = append(d.refs, hopCount{hop: h.hop})
					if h.hop != ident.ZeroAddr {
						d.refNextHops++
					}
				}
			}
			fs.ref.n += uint32(added)
			ref = d.refOf(fs)
		}
		for i := range ref {
			cv := 0.0
			for _, h := range cur {
				if h.hop == ref[i].hop {
					cv = h.v
					break
				}
			}
			ref[i].v = alpha*cv + (1-alpha)*ref[i].v
		}
	}

	d.compactRefs()
	d.pat = d.pat[:0]
	d.touched = d.touched[:0]
	d.epoch++
	d.binsClosed++
	d.closeDur += time.Since(t0)
	return alarms
}

// scoreUnion is the single implementation of the §5.2 arithmetic, shared
// by the columnar hot path and the exported Compare: it sorts the union by
// address — netip.Addr.Compare's order, which puts the unresponsive zero
// address first — fills the Pearson vectors in that order (into the
// provided scratch, which may be nil), and returns ρ and the Σ|Fᵢ−F̄ᵢ|
// normalizer of Eq 9.
func scoreUnion(union []unionHop, f, fbar []float64) (rho, absDiff float64, fOut, fbarOut []float64) {
	slices.SortFunc(union, func(a, b unionHop) int { return a.addr.Compare(b.addr) })
	f, fbar = f[:0:cap(f)], fbar[:0:cap(fbar)]
	for _, u := range union {
		f = append(f, u.f)
		fbar = append(fbar, u.fbar)
		absDiff += math.Abs(u.f - u.fbar)
	}
	return stats.Pearson(f, fbar), absDiff, f, fbar
}

// unionScores materializes the per-hop responsibility scores rᵢ (Eq 9)
// over an address-sorted union.
func unionScores(union []unionHop, rho, absDiff float64) []HopScore {
	scores := make([]HopScore, len(union))
	for i, u := range union {
		r := 0.0
		if absDiff > 0 && !math.IsNaN(rho) {
			r = -rho * (u.f - u.fbar) / absDiff
		}
		scores[i] = HopScore{Hop: u.addr, Responsibility: r, Count: u.f, RefCount: u.fbar}
	}
	return scores
}

// compare evaluates one columnar pattern against its reference: the union
// of next hops is resolved into the reusable scratch and handed to the
// shared scoreUnion/unionScores core. Scores are only materialized when
// the pattern is anomalous (the exported Compare keeps returning them
// unconditionally for the Fig 4 worked example).
func (d *Detector) compare(cur, ref []hopCount) (rho float64, scores []HopScore) {
	union := d.unionBuf[:0]
	for _, h := range cur {
		union = append(union, unionHop{addr: d.reg.AddrOf(h.hop), f: h.v})
	}
	for _, h := range ref {
		a := d.reg.AddrOf(h.hop)
		found := false
		for i := range union {
			if union[i].addr == a {
				union[i].fbar = h.v
				found = true
				break
			}
		}
		if !found {
			union = append(union, unionHop{addr: a, fbar: h.v})
		}
	}
	rho, absDiff, f, fbar := scoreUnion(union, d.fBuf, d.fbarBuf)
	if !math.IsNaN(rho) && rho < tau {
		scores = unionScores(union, rho, absDiff)
	}
	d.unionBuf = union[:0]
	d.fBuf = f[:0]
	d.fbarBuf = fbar[:0]
	return rho, scores
}

// Compare computes ρ(F, F̄) over the union of next hops and the per-hop
// responsibility scores rᵢ (Eq 9). It is exported so the Fig 4 worked
// example and the event aggregation can reuse the exact arithmetic; it
// shares scoreUnion/unionScores with the detector's hot path, so the two
// cannot drift.
func Compare(cur, ref map[netip.Addr]float64) (rho float64, scores []HopScore) {
	union := make([]unionHop, 0, len(cur)+len(ref))
	for a, v := range cur {
		union = append(union, unionHop{addr: a, f: v})
	}
	for a, v := range ref {
		found := false
		for i := range union {
			if union[i].addr == a {
				union[i].fbar = v
				found = true
				break
			}
		}
		if !found {
			union = append(union, unionHop{addr: a, fbar: v})
		}
	}
	rho, absDiff, _, _ := scoreUnion(union, nil, nil)
	return rho, unionScores(union, rho, absDiff)
}
