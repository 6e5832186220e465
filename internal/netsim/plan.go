package netsim

import (
	"fmt"
	"net/netip"
	"time"
)

// planKey names the route of a traceroute. Atlas re-traces each (probe,
// target) pair with a fixed Paris id every interval, so a handful of keys
// serve a whole campaign: one per pair and routing epoch.
type planKey struct {
	probe   RouterID
	dst     netip.Addr
	parisID int
	epoch   uint64
}

// plan is everything about the traceroutes of one planKey that does not
// depend on the PRNG: the resolved trees, the forward walk (and the
// multipath alternate), and the return walk of the router at the far end of
// every hop. A plan is built once by Net.plan and never written after it is
// published, so every worker reads it without a lock. Only the plan itself
// holds pointers: its arrays are pointer-free, which keeps the cache out of
// the garbage collector's scan work.
type plan struct {
	planKey
	fwd, ret   *towardTree // forward tree toward dst; return tree toward the probe
	serviceHop RouterID    // anycast instance answering for dst, or NoRouter
	path       []EdgeID    // the forward walk
	altPath    []EdgeID    // the multipath alternate walk
	reached    bool        // the walk ends at dst
	multipath  bool        // the artifact layer splits the flow over altPath

	// fwdRet[i-1] and altRet[i-1] locate in retPath the return walk of the
	// far end of hop i on path and on altPath.
	fwdRet, altRet []returnWalk
	retPath        []EdgeID

	// static: no scenario event touches an edge above or the router at its
	// far end, so the legs compiled at any instant are the ones compiled
	// here (retSteps indexed like retPath), and a traceroute aliases them
	// instead of compiling its own.
	static                       bool
	fwdSteps, altSteps, retSteps []step
}

// returnWalk is the path the ICMP replies of one hop's router take back to
// the probe: retPath[start:end] of its plan.
type returnWalk struct {
	start, end int32
	ok         bool // the router can reach the probe
}

// plan returns the (cached) plan of a traceroute from probe to dst with the
// given Paris id in the routing epoch. A miss builds the plan outside any
// lock: concurrent misses on one key build identical plans and the first to
// publish wins.
func (n *Net) plan(probe RouterID, dst netip.Addr, parisID int, epoch uint64) (*plan, error) {
	key := planKey{probe: probe, dst: dst, parisID: parisID, epoch: epoch}
	if p, ok := n.plans.Load(key); ok {
		return p.(*plan), nil
	}
	fwd, serviceHop, ok := n.route(probe, dst, epoch)
	if !ok {
		return nil, fmt.Errorf("netsim: traceroute to unknown destination %v", dst)
	}
	p := &plan{planKey: key, fwd: fwd, ret: n.towardTree(probe, epoch), serviceHop: serviceHop}
	p.path, p.reached = n.walk(fwd, nil, probe, flowOf(parisID))
	p.fwdRet = p.returnWalks(n, p.path)
	if n.artifacts.multipathFlow(probe, dst, parisID) {
		// A hash-selected flow crosses a load balancer that ignores the
		// Paris flow identifier: packets split over a second path (walked
		// with a perturbed flow selector), mixing two real paths' routers
		// within single TTLs.
		p.multipath = true
		p.altPath, _ = n.walk(fwd, nil, probe, flowOf(parisID+1))
		p.altRet = p.returnWalks(n, p.altPath)
	}
	p.static = n.untouched(p.path) && n.untouched(p.altPath) && n.untouched(p.retPath)
	if p.static {
		var never time.Time // no event applies to a static plan at any instant
		p.fwdSteps = n.compile(nil, p.path, never)
		p.altSteps = n.compile(nil, p.altPath, never)
		p.retSteps = n.compile(nil, p.retPath, never)
	}
	v, _ := n.plans.LoadOrStore(key, p)
	return v.(*plan), nil
}

// returnWalks appends to retPath the return walk of the far end of every
// edge of path and returns where each one lies.
func (p *plan) returnWalks(n *Net, path []EdgeID) []returnWalk {
	walks := make([]returnWalk, len(path))
	for i, eid := range path {
		to := n.edges[eid].To
		walks[i].start = int32(len(p.retPath))
		p.retPath, walks[i].ok = n.walk(p.ret, p.retPath, to, returnFlow(to))
		walks[i].end = int32(len(p.retPath))
	}
	return walks
}

// untouched reports whether no scenario event names an edge of path or the
// router at its far end.
func (n *Net) untouched(path []EdgeID) bool {
	for _, eid := range path {
		if n.linkEvents[eid] != nil || n.routerEvents[n.edges[eid].To] != nil {
			return false
		}
	}
	return true
}
