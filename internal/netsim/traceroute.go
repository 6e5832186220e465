package netsim

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"time"

	"pinpoint/internal/trace"
)

// The traceroute engine's fixed parameters: Atlas's TTL limit, the
// std-dev of probe-side measurement noise, and the mean of the exponential
// extra delay a router adds when generating an ICMP reply (the "slow path"
// of §2).
const (
	maxTTL     = 30
	noiseMS    = 0.05
	slowPathMS = 0.3
)

// The traceroute engine's Atlas-like behaviour, the one the paper's dataset
// has: packets sent per TTL, and consecutive unresponsive hops before the
// traceroute gives up.
const (
	packetsPerHop = 3
	gapLimit      = 4
)

// TracerouteOpts is the traceroute engine's option set. Every caller passes
// the zero value: its fields are test seams, where 0 takes the constant
// above and TracerouteInto rejects a negative value.
type TracerouteOpts struct {
	packetsPerHop, gapLimit int
}

// withDefaults fills zero fields with the constants.
func (o TracerouteOpts) withDefaults() TracerouteOpts {
	if o.packetsPerHop == 0 {
		o.packetsPerHop = packetsPerHop
	}
	if o.gapLimit == 0 {
		o.gapLimit = gapLimit
	}
	return o
}

// TracerouteScratch holds the working memory of one traceroute: the legs
// compiled at a hop's instant (for plans a scenario event touches, and for
// slow hops off the plan's route), and the backing arrays for the result's
// hops and replies. A scratch is single-owner (one goroutine at a time); the
// parallel measurement generator keeps one per worker. Buffers grow to the
// campaign's high-water mark and are then reused, making steady-state
// traceroutes allocation-free on the simulation side.
type TracerouteScratch struct {
	flipPath []EdgeID      // route-flip-artifact recomputed path
	retPath  []EdgeID      // return-path walk of a hop off the plan's route
	fwd, alt []step        // forward legs compiled for the current hop's instant
	ret      [2]returnLeg  // the current hop's return legs: from the fwd and the alt target
	hops     []trace.Hop   // reused hop headers
	replies  []trace.Reply // one backing array for every hop's replies
}

// step is one link crossing with everything that does not depend on the PRNG
// resolved for one instant: the link (whose delay model cross samples in
// place), its scenario modifiers, and the scenario state of the router at
// its far end. It holds no pointer, so the garbage collector never scans the
// steps a plan keeps.
type step struct {
	edge   EdgeID
	extra  float64 // scenario congestion, ms
	loss   float64 // baseline + scenario loss probability
	drop   float64 // far-end router's blackhole probability
	to     RouterID
	down   bool
	silent bool // far-end router generates no ICMP
}

// returnLeg is the compiled path of the ICMP replies of one hop's router:
// a static plan's steps, or buf compiled at the hop's instant.
type returnLeg struct {
	steps []step
	buf   []step
	hop   int  // TTL the leg was resolved for (0: none)
	ok    bool // the replying router can reach the probe
}

// compile resolves the links of path at one instant into dst.
func (n *Net) compile(dst []step, path []EdgeID, at time.Time) []step {
	dst = dst[:0]
	for _, eid := range path {
		e := &n.edges[eid]
		s := step{edge: eid, loss: e.Loss, to: e.To}
		if evs := n.linkEvents[eid]; evs != nil {
			var loss float64
			s.extra, loss, s.down = linkState(evs, at)
			s.loss += loss
		}
		if evs := n.routerEvents[e.To]; evs != nil {
			s.silent, s.drop = routerState(evs, at)
		}
		dst = append(dst, s)
	}
	return dst
}

// cross sends one packet over a leg and returns its sampled one-way delay,
// or ok=false when it is lost: every link in order (a down link or a lost
// coin ends it), then the blackhole coin of each transit router — the far
// end of every link but the last. This draw order is pinned by the goldens.
func (n *Net) cross(leg []step, rng *rand.Rand) (ms float64, ok bool) {
	for i := range leg {
		s := &leg[i]
		if s.down || s.loss > 0 && rng.Float64() < s.loss {
			return 0, false
		}
		ms += n.edges[s.edge].Delay.Sample(rng, s.extra)
	}
	for i := 0; i+1 < len(leg); i++ {
		if d := leg[i].drop; d > 0 && rng.Float64() < d {
			return 0, false
		}
	}
	return ms, true
}

// route resolves dst to the tree packets from probe follow: toward the
// router owning the address, or for a service toward its closest instance
// (anycast; ties go to the earliest instance, as does a probe that reaches
// none — its packets vanish at the first hop). serviceHop is that instance,
// whose replies carry the service address (what anycast looks like in real
// traceroutes), or NoRouter when dst is a router's own address.
func (n *Net) route(probe RouterID, dst netip.Addr, epoch uint64) (fwd *towardTree, serviceHop RouterID, ok bool) {
	instances := n.services[dst]
	if instances == nil {
		rid, ok := n.byAddr[dst]
		if !ok {
			return nil, NoRouter, false
		}
		return n.towardTree(rid, epoch), NoRouter, true
	}
	fwd = n.towardTree(instances[0], epoch)
	for _, inst := range instances[1:] {
		if t := n.towardTree(inst, epoch); t.dist[probe] < fwd.dist[probe] {
			fwd = t
		}
	}
	return fwd, fwd.root, true
}

// TracerouteInto simulates one Paris traceroute from a probe-hosting router
// to a destination address (a service address or a router interface
// address) at the given instant. The Paris flow identifier pins ECMP
// decisions, so repeated calls with the same id traverse the same path
// (modulo scenario epochs). The caller supplies the PRNG, which fully
// determines the noise.
//
// The returned Result's Hops and Replies point into scratch-owned arrays and
// are valid only until the scratch's next traceroute. It is the
// zero-allocation core; use TracerouteWith when the result must own its
// memory.
//
// The route comes from the trace's plan, walked once per (probe, dst, Paris
// id, routing epoch): a trace whose plan no scenario event touches samples
// over the plan's compiled steps; otherwise the plan's walks are compiled
// per hop instant (forward legs) and per (hop, replying router) (return
// legs). The per-packet loop only samples. The order of PRNG draws is a
// contract (see cross and Artifacts).
func (n *Net) TracerouteInto(sc *TracerouteScratch, probe RouterID, dst netip.Addr, at time.Time, parisID int, rng *rand.Rand, opts TracerouteOpts) (trace.Result, error) {
	if opts.packetsPerHop < 0 || opts.gapLimit < 0 {
		return trace.Result{}, fmt.Errorf("netsim: negative traceroute option (packets per hop %d, gap limit %d)", opts.packetsPerHop, opts.gapLimit)
	}
	opts = opts.withDefaults()
	if !validRouter(probe, len(n.routers)) {
		return trace.Result{}, fmt.Errorf("netsim: traceroute from unknown router %d", probe)
	}
	epoch := n.scenario.EpochKey(at)
	p, err := n.plan(probe, dst, parisID, epoch)
	if err != nil {
		return trace.Result{}, err
	}

	res := trace.Result{
		PrbID:   int(probe),
		Time:    at,
		Src:     n.routers[probe].Addr,
		Dst:     dst,
		ParisID: parisID,
	}

	// Reserve the worst-case reply capacity up front so every hop's Replies
	// subslices one stable backing array (no mid-run growth, no aliasing of
	// two generations).
	if need := maxTTL * opts.packetsPerHop; cap(sc.replies) < need {
		sc.replies = make([]trace.Reply, 0, need)
	}
	if cap(sc.hops) < maxTTL {
		sc.hops = make([]trace.Hop, 0, maxTTL)
	}
	sc.replies = sc.replies[:0]
	sc.hops = sc.hops[:0]
	sc.ret[0].hop, sc.ret[1].hop = 0, 0

	// Artifact-layer setup. The strict contract here is that with the zero
	// Artifacts config this block draws nothing from rng and every per-packet
	// branch below collapses to the original code path: artifact-free runs
	// must stay byte-identical to builds that never attached Artifacts.
	art := n.artifacts
	useArt := art.Enabled()
	slow := false
	if useArt && art.RouteFlipProb > 0 {
		// One coin per trace, drawn whenever the artifact is on (never
		// conditioned on epoch boundaries) so the draw sequence is a pure
		// function of the config.
		slow = rng.Float64() < art.RouteFlipProb
	}

	gap := 0
	fwdLeg, altLeg := p.fwdSteps, p.altSteps
	hopPath, fwdRet, hopAt, flipEpoch := p.path, p.fwdRet, at, epoch
	for i := 1; i <= maxTTL; i++ {
		if slow {
			// A slow trace: hop i fires later than hop i-1. When a
			// route-affecting boundary falls inside the trace, the remaining
			// TTLs probe the new route while the earlier hops recorded the
			// old one — the inconsistent-traceroute artifact.
			hopAt = at.Add(time.Duration(i-1) * RouteFlipHopStall)
			if e2 := n.scenario.EpochKey(hopAt); e2 != flipEpoch {
				flipEpoch = e2
				sc.flipPath, _ = n.walk(n.towardTree(p.fwd.root, e2), sc.flipPath[:0], probe, flowOf(parisID))
				hopPath, fwdRet = sc.flipPath, nil
			}
		}
		if slow || i == 1 {
			// One compile serves a whole trace, except that every hop of a
			// slow trace has its own instant. A static plan's legs are
			// already compiled, unless a slow trace left its route (fwdRet
			// nil).
			if !p.static || fwdRet == nil {
				sc.fwd = n.compile(sc.fwd, hopPath, hopAt)
				fwdLeg = sc.fwd
			}
			if p.multipath && !p.static {
				sc.alt = n.compile(sc.alt, p.altPath, hopAt)
				altLeg = sc.alt
			}
		}
		hopStart := len(sc.replies)
		for k := 0; k < opts.packetsPerHop; k++ {
			leg, rets, retLeg := fwdLeg, fwdRet, &sc.ret[0]
			if p.multipath && rng.Uint64()&1 == 1 {
				leg, rets, retLeg = altLeg, p.altRet, &sc.ret[1]
			}
			// Beyond the routable path (a routing dead end) the packet
			// vanishes.
			reply := trace.Reply{Timeout: true}
			if i <= len(leg) {
				reply = n.probeHop(sc, p, leg[:i], rets, retLeg, hopAt, rng)
			}
			sc.replies = append(sc.replies, reply)
		}
		hop := trace.Hop{Index: i, Replies: sc.replies[hopStart:len(sc.replies):len(sc.replies)]}
		sc.hops = append(sc.hops, hop)

		// Loop control keys on the base path: an artifact can change what a
		// hop reports, never how far the probe walks.
		if p.reached && i == len(p.path) {
			break
		}
		if hop.Unresponsive() {
			gap++
			if gap >= opts.gapLimit {
				break
			}
		} else {
			gap = 0
		}
	}
	if useArt && art.ReorderProb > 0 {
		// Response reordering: one coin per adjacent hop boundary (drawn for
		// every boundary, so the count only depends on the hop count), each
		// success swapping the last reply of hop i with the first of hop
		// i+1 — replies attributed to the wrong TTL create false links.
		for h := 0; h+1 < len(sc.hops); h++ {
			if rng.Float64() >= art.ReorderProb {
				continue
			}
			a, b := sc.hops[h].Replies, sc.hops[h+1].Replies
			if len(a) > 0 && len(b) > 0 {
				a[len(a)-1], b[0] = b[0], a[len(a)-1]
			}
		}
	}
	res.Hops = sc.hops
	return res, nil
}

// TracerouteWith runs one traceroute through the scratch and copies the
// result out into exactly-sized, caller-owned memory (two allocations: the
// hop slice and one shared reply backing array). This is what the parallel
// generator's workers call: all the intermediate garbage — path walks,
// compiled legs, slice growth — stays in the per-worker scratch.
func (n *Net) TracerouteWith(sc *TracerouteScratch, probe RouterID, dst netip.Addr, at time.Time, parisID int, rng *rand.Rand, opts TracerouteOpts) (trace.Result, error) {
	res, err := n.TracerouteInto(sc, probe, dst, at, parisID, rng, opts)
	if err != nil {
		return res, err
	}
	hops := make([]trace.Hop, len(res.Hops))
	backing := make([]trace.Reply, 0, len(sc.replies))
	for i, h := range res.Hops {
		start := len(backing)
		backing = append(backing, h.Replies...)
		hops[i] = trace.Hop{Index: h.Index, Replies: backing[start:len(backing):len(backing)]}
	}
	res.Hops = hops
	return res, nil
}

// probeHop simulates one packet probing the hop at the end of the forward
// leg and returns the resulting reply or timeout. The hop's return leg is
// resolved by the first packet that needs it and reused by the hop's other
// packets: the plan's compiled steps, the plan's walk (rets) compiled at
// the hop's instant, or — for a slow hop off the plan's route, rets nil — a
// walk of the plan's return tree.
func (n *Net) probeHop(sc *TracerouteScratch, p *plan, leg []step, rets []returnWalk, retLeg *returnLeg, at time.Time, rng *rand.Rand) trace.Reply {
	// Forward leg: the links up to the hop, then the transit routers
	// (strictly between probe and target), which may blackhole.
	fwdMS, ok := n.cross(leg, rng)
	if !ok {
		return trace.Reply{Timeout: true}
	}
	// The target router generates the ICMP time-exceeded reply (or not).
	hop := &leg[len(leg)-1]
	if hop.silent {
		return trace.Reply{Timeout: true}
	}
	target := hop.to
	router := &n.routers[target]
	if rng.Float64() > router.ResponseProb {
		return trace.Reply{Timeout: true}
	}
	// Return leg: the ICMP reply routes back independently, over the trees
	// of the trace's start but with the scenario state of the hop's instant.
	if retLeg.hop != len(leg) {
		retLeg.hop = len(leg)
		switch {
		case rets == nil:
			sc.retPath, retLeg.ok = n.walk(p.ret, sc.retPath[:0], target, returnFlow(target))
			retLeg.buf = n.compile(retLeg.buf, sc.retPath, at)
			retLeg.steps = retLeg.buf
		case p.static:
			w := rets[len(leg)-1]
			retLeg.steps, retLeg.ok = p.retSteps[w.start:w.end], w.ok
		default:
			w := rets[len(leg)-1]
			retLeg.buf = n.compile(retLeg.buf, p.retPath[w.start:w.end], at)
			retLeg.steps, retLeg.ok = retLeg.buf, w.ok
		}
	}
	if !retLeg.ok {
		return trace.Reply{Timeout: true}
	}
	retMS, ok := n.cross(retLeg.steps, rng)
	if !ok {
		return trace.Reply{Timeout: true}
	}
	rtt := fwdMS + retMS + rng.ExpFloat64()*slowPathMS + rng.NormFloat64()*noiseMS
	if rtt < 0.01 {
		rtt = 0.01
	}
	from := router.Addr
	// Address artifacts (hash-decided, no rng draws): a lying router answers
	// from a stale interface address for a whole hour; an alias-selected
	// router answers half its flows from a second interface address.
	if n.staleAddr != nil && n.artifacts.lyingRouter(target, at) {
		from = n.staleAddr[target]
	} else if n.aliases != nil && n.artifacts.aliasedReply(target, p.parisID) {
		if al := n.aliases[target]; al.IsValid() {
			from = al
		}
	}
	if target == p.serviceHop {
		from = p.dst
	}
	return trace.Reply{From: from, RTT: rtt}
}

// ForwardPath returns the router sequence (including the probe router) a
// flow takes toward dst at the given time, and whether the destination is
// reached. Diagnostics and tests use it; it is the traceroute engine's own
// route resolution and walk.
func (n *Net) ForwardPath(probe RouterID, dst netip.Addr, at time.Time, parisID int) ([]RouterID, bool) {
	fwd, _, ok := n.route(probe, dst, n.scenario.EpochKey(at))
	if !ok {
		return nil, false
	}
	path, reached := n.walk(fwd, nil, probe, flowOf(parisID))
	return n.routersOn(probe, path), reached
}

// ReturnPath returns the router sequence an ICMP reply takes from a router
// back to the probe at the given time. No production path calls it: it is
// the test oracle for reply routing (atlas's golden test and this package's
// tests check replies against it), kept until attribution of delay changes
// to the forward or the return path gives it a caller.
func (n *Net) ReturnPath(from, probe RouterID, at time.Time) ([]RouterID, bool) {
	path, ok := n.walk(n.towardTree(probe, n.scenario.EpochKey(at)), nil, from, returnFlow(from))
	return n.routersOn(from, path), ok
}
