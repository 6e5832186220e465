package netsim

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"

	"pinpoint/internal/ipmap"
)

// RouterID indexes a router within a Net.
type RouterID int

// NoRouter is the invalid router sentinel.
const NoRouter RouterID = -1

// Router is one IP interface in the simulated network.
type Router struct {
	ID   RouterID
	Addr netip.Addr
	AS   ipmap.ASN
	Name string

	// ResponseProb is the probability the router answers a TTL-expired
	// packet with an ICMP time-exceeded message. Real routers rate-limit
	// or disable ICMP generation; values slightly below 1 make hops
	// occasionally unresponsive even in healthy conditions.
	ResponseProb float64
}

// EdgeID indexes a directional edge within a Net.
type EdgeID int

// Edge is one direction of a link between two routers.
type Edge struct {
	ID     EdgeID
	From   RouterID
	To     RouterID
	Weight float64 // routing weight (lower is preferred)
	Delay  DelayModel
	Loss   float64 // baseline per-packet loss probability
}

// Net is an immutable simulated network. Build one with a Builder and then
// query it concurrently. Two caches fill as traceroutes run, and steady-state
// reads of both are lock-free — the parallel measurement generator hits them
// from every worker on every traceroute, and a mutex here shows up
// immediately in profiles. Route trees are cached per (root, epoch) in an
// immutable copy-on-write map; route plans (see plan) per (probe, dst,
// Paris id, epoch) in a sync.Map, so a traceroute walks no path its plan
// already holds.
//
// Everything a traceroute needs that does not depend on its PRNG is laid out
// for array access: trees name the next-hop edge (not just the router), and
// the scenario is compiled into event lists indexed by EdgeID and RouterID.
type Net struct {
	routers  []Router
	edges    []Edge
	out      [][]EdgeID // edges leaving each router
	in       [][]EdgeID // edges entering each router
	byAddr   map[netip.Addr]RouterID
	services map[netip.Addr][]RouterID // service address → instance routers
	prefixes *ipmap.Table
	scenario *Scenario

	// The scenario compiled at Build: the events touching each edge and
	// each router, in scenario order; nil for the untouched majority.
	linkEvents   [][]*Event
	routerEvents [][]*Event

	// Measurement-artifact layer (see Artifacts). aliases[id] is the
	// router's second interface address (invalid when unassigned) and
	// staleAddr[id] the stale interface address a lying router replies
	// with — drawn from a neighboring AS's prefix, or the router's own
	// address when allocation was impossible (artifact no-op); both
	// are only populated when the relevant artifact rate is nonzero.
	artifacts Artifacts
	aliases   []netip.Addr
	staleAddr []netip.Addr

	treeMu sync.Mutex                              // serializes cache misses
	trees  atomic.Pointer[map[treeKey]*towardTree] // immutable snapshot
	plans  sync.Map                                // planKey → *plan
}

// Router returns the router with the given id.
func (n *Net) Router(id RouterID) Router { return n.routers[id] }

// Prefixes returns the IP→AS table announced by the simulated network.
// The detectors use it for alarm aggregation exactly as the paper uses BGP
// data.
func (n *Net) Prefixes() *ipmap.Table { return n.prefixes }

// Scenario returns the scenario attached to the network (never nil; an
// empty scenario when none was attached).
func (n *Net) Scenario() *Scenario { return n.scenario }

// Artifacts returns the measurement-artifact configuration baked in at
// Build (the zero value when none was set).
func (n *Net) Artifacts() Artifacts { return n.artifacts }

// Services returns all service addresses in deterministic (insertion-free,
// sorted-string) order.
func (n *Net) Services() []netip.Addr {
	out := make([]netip.Addr, 0, len(n.services))
	for a := range n.services {
		out = append(out, a)
	}
	sortAddrs(out)
	return out
}

func sortAddrs(as []netip.Addr) {
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j].Less(as[j-1]); j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}

// Neighbors returns the routers directly reachable from r, in edge order.
func (n *Net) Neighbors(r RouterID) []RouterID {
	out := make([]RouterID, 0, len(n.out[r]))
	for _, id := range n.out[r] {
		out = append(out, n.edges[id].To)
	}
	return out
}

// --- Shortest-path "toward" trees -----------------------------------------

type treeKey struct {
	root  RouterID
	epoch uint64
}

// towardTree holds, for every router, the distance and the equal-cost next
// hops along shortest paths toward a root router. It answers both "how do
// packets travel from X to the destination root" (forwarding) and "how do
// ICMP replies travel from hop X back to the probe root" (return paths).
type towardTree struct {
	root RouterID
	dist []float64
	// next is the equal-cost next-hop edges of every router in CSR form, one
	// allocation per tree: next[next[u]:next[u+1]] are the edges u forwards
	// on (none when u is the root or cannot reach it).
	next []int32
}

const inf = 1e18

// towardTree computes (or returns the cached) shortest-path tree toward
// root under the routing weights active at the given epoch. The fast path
// is one atomic load and a map read on an immutable snapshot; misses take a
// mutex, recompute, and publish a copied map (RCU), so concurrent readers
// never contend once the epoch's trees are warm.
func (n *Net) towardTree(root RouterID, epoch uint64) *towardTree {
	key := treeKey{root: root, epoch: epoch}
	if m := n.trees.Load(); m != nil {
		if t, ok := (*m)[key]; ok {
			return t
		}
	}

	n.treeMu.Lock()
	defer n.treeMu.Unlock()
	var cur map[treeKey]*towardTree
	if m := n.trees.Load(); m != nil {
		cur = *m
		if t, ok := cur[key]; ok {
			return t
		}
	}
	t := n.computeTowardTree(root, epoch)
	next := make(map[treeKey]*towardTree, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[key] = t
	n.trees.Store(&next)
	return t
}

type pqItem struct {
	router RouterID
	dist   float64
}

// priorityQueue is a binary min-heap on dist over a plain slice:
// container/heap would box every pushed item.
type priorityQueue []pqItem

func (pq *priorityQueue) push(it pqItem) {
	h := append(*pq, it)
	for i := len(h) - 1; i > 0 && h[(i-1)/2].dist > h[i].dist; i = (i - 1) / 2 {
		h[(i-1)/2], h[i] = h[i], h[(i-1)/2]
	}
	*pq = h
}

func (pq *priorityQueue) pop() pqItem {
	h := *pq
	top, last := h[0], len(h)-1
	h[0] = h[last]
	for i, c := 0, 1; c < last; i, c = c, 2*c+1 {
		if c+1 < last && h[c+1].dist < h[c].dist {
			c++
		}
		if h[i].dist <= h[c].dist {
			break
		}
		h[i], h[c] = h[c], h[i]
	}
	*pq = h[:last]
	return top
}

// computeTowardTree runs Dijkstra from root over reversed edges, so dist[u]
// is the cost of the shortest directed path u→…→root. It makes a fixed
// number of allocations whatever the size of the network.
func (n *Net) computeTowardTree(root RouterID, epoch uint64) *towardTree {
	nr := len(n.routers)
	dist := make([]float64, nr)
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = 0
	settled := make([]bool, nr)

	pq := make(priorityQueue, 0, len(n.edges)+1) // one push per relaxation at most
	pq.push(pqItem{router: root, dist: 0})
	for len(pq) > 0 {
		it := pq.pop()
		v := it.router
		if settled[v] {
			continue
		}
		settled[v] = true
		// Relax edges u→v: a packet at u can reach root via v.
		for _, eid := range n.in[v] {
			e := &n.edges[eid]
			w, down := n.scenario.edgeWeight(e, epoch)
			if down {
				continue
			}
			u := e.From
			if nd := w + it.dist; nd < dist[u] {
				dist[u] = nd
				pq.push(pqItem{router: u, dist: nd})
			}
		}
	}

	const eps = 1e-9
	next := make([]int32, nr+1, nr+1+len(n.edges)) // worst case; trimmed below
	for u := 0; u < nr; u++ {
		next[u] = int32(len(next))
		if dist[u] >= inf || RouterID(u) == root {
			continue
		}
		for _, eid := range n.out[u] {
			e := &n.edges[eid]
			w, down := n.scenario.edgeWeight(e, epoch)
			if down {
				continue
			}
			if dist[e.To] < inf && dist[u] >= w+dist[e.To]-eps && dist[u] <= w+dist[e.To]+eps {
				// Parallel links u→v are one scenario target (events name
				// router pairs) and one data-plane link: whichever of them
				// routing prefers, packets are sampled on the first.
				for _, first := range n.out[u] {
					if n.edges[first].To == e.To {
						next = append(next, int32(first))
						break
					}
				}
			}
		}
	}
	next[nr] = int32(len(next))
	return &towardTree{root: root, dist: dist, next: append([]int32(nil), next...)}
}

// walk follows the tree from u to its root, appending the edges crossed to
// dst — the hot traceroute path hands in a scratch slice, so the walk
// allocates nothing in steady state. flow picks among equal-cost next hops
// (Paris traceroute keeps it constant within a flow, so the path is stable).
// ok is false when the root is unreachable; the appended edges are then the
// walk up to the dead end.
func (n *Net) walk(t *towardTree, dst []EdgeID, u RouterID, flow uint64) (path []EdgeID, ok bool) {
	base := len(dst)
	for u != t.root {
		cands := t.next[t.next[u]:t.next[u+1]]
		if len(cands) == 0 {
			return dst, false
		}
		eid := EdgeID(cands[0])
		if len(cands) > 1 { // rare: spares the common case a 64-bit division
			eid = EdgeID(cands[flow%uint64(len(cands))])
		}
		dst = append(dst, eid)
		u = n.edges[eid].To
		if len(dst)-base > 1024 {
			panic(fmt.Sprintf("netsim: routing loop walking toward %d", t.root))
		}
	}
	return dst, true
}

// routersOn returns the router sequence of a walk of edges from start.
func (n *Net) routersOn(start RouterID, edges []EdgeID) []RouterID {
	out := append(make([]RouterID, 0, len(edges)+1), start)
	for _, eid := range edges {
		out = append(out, n.edges[eid].To)
	}
	return out
}

// flowOf turns a Paris id into an ECMP flow selector: its magnitude, taken
// as unsigned so that math.MinInt has one too.
func flowOf(parisID int) uint64 {
	if parisID < 0 {
		return -uint64(parisID)
	}
	return uint64(parisID)
}

// returnFlow is the flow selector of the ICMP replies of router r: fixed per
// replying router, not per Paris id, because return-path ECMP hashes on the
// reply's own header fields. 64-bit on every platform.
func returnFlow(r RouterID) uint64 { return uint64(r) * 2654435761 }
