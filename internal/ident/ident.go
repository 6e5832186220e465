// Package ident is the pipeline's interned identity layer: it maps the
// entities the detectors key their state on — IP addresses, IP-level links
// (ordered address pairs, §4), router addresses (§5) and forwarding flows
// (router, destination pairs, §5.1) — to small dense integer IDs, with
// reverse lookup for reporting.
//
// Interning moves every expensive comparison off the hot path: a
// netip.Addr is hashed and compared once, at first sight, and from then on
// the sample flows through extraction, shard routing and detector
// aggregation as a uint32. Dense IDs also let the detectors replace their
// per-key maps with slice-indexed columnar state (see internal/delay and
// internal/forwarding), which is what makes steady-state ingestion
// allocation-free.
//
// A Registry is safe for concurrent use: interning the same entity from
// any number of goroutines returns the same ID, and reverse lookups may
// run concurrently with interning. IDs are assigned in first-seen order,
// so two runs over the same chronological stream produce identical IDs —
// but nothing downstream depends on that: emission order is always
// restored by sorting on reverse-resolved keys.
package ident

import (
	"encoding/binary"
	"net/netip"
	"sync"

	"pinpoint/internal/trace"
)

// AddrID is a dense identifier for an interned IP address. The zero AddrID
// is reserved for the zero (invalid) netip.Addr, so it can double as the
// forwarding detector's "unresponsive" bucket.
type AddrID uint32

// ZeroAddr is the AddrID of the zero netip.Addr, reserved at registry
// construction. forwarding.Unresponsive interns to exactly this ID.
const ZeroAddr AddrID = 0

// LinkID is a dense identifier for an interned IP-level link — an ordered
// (near, far) address pair, the unit of the §4 delay analysis.
type LinkID uint32

// FlowID is a dense identifier for an interned forwarding flow — a
// (router, destination) address pair, the unit of the §5 analysis.
type FlowID uint32

// RouterID is a dense identifier for an interned router address. Routers
// get their own ID space (denser than AddrID) because the engine shards
// forwarding state per router and the detector tracks per-router facts.
type RouterID uint32

// pairKey packs two 32-bit IDs into one 64-bit key; pair interning therefore
// hashes 8 bytes instead of two 24-byte netip.Addrs.
type pairKey uint64

func mkPair(a, b AddrID) pairKey { return pairKey(a)<<32 | pairKey(b) }

// Registry is the concurrent-safe interning table. The zero value is not
// usable; construct with NewRegistry.
type Registry struct {
	mu sync.RWMutex

	addrIDs map[netip.Addr]AddrID
	addrs   []netip.Addr

	linkIDs map[pairKey]LinkID
	links   []pairKey

	flowIDs map[pairKey]FlowID
	flows   []pairKey

	routerIDs map[AddrID]RouterID
	routers   []AddrID
}

// NewRegistry returns an empty registry with the zero address pre-interned
// as ZeroAddr.
func NewRegistry() *Registry {
	g := &Registry{
		addrIDs:   make(map[netip.Addr]AddrID),
		linkIDs:   make(map[pairKey]LinkID),
		flowIDs:   make(map[pairKey]FlowID),
		routerIDs: make(map[AddrID]RouterID),
	}
	g.addrIDs[netip.Addr{}] = ZeroAddr
	g.addrs = append(g.addrs, netip.Addr{})
	return g
}

// Addr interns an address, returning its stable dense ID.
func (g *Registry) Addr(a netip.Addr) AddrID {
	g.mu.RLock()
	id, ok := g.addrIDs[a]
	g.mu.RUnlock()
	if ok {
		return id
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if id, ok := g.addrIDs[a]; ok {
		return id
	}
	id = AddrID(len(g.addrs))
	g.addrIDs[a] = id
	g.addrs = append(g.addrs, a)
	return id
}

// LookupAddr returns the ID of an already-interned address without
// interning it; ok is false when the address has never been seen.
func (g *Registry) LookupAddr(a netip.Addr) (AddrID, bool) {
	g.mu.RLock()
	id, ok := g.addrIDs[a]
	g.mu.RUnlock()
	return id, ok
}

// AddrOf resolves an ID back to its address. It panics on IDs the registry
// never issued, like a slice index out of range would.
func (g *Registry) AddrOf(id AddrID) netip.Addr {
	g.mu.RLock()
	a := g.addrs[id]
	g.mu.RUnlock()
	return a
}

// Link interns the ordered address pair (near, far).
func (g *Registry) Link(near, far AddrID) LinkID {
	k := mkPair(near, far)
	g.mu.RLock()
	id, ok := g.linkIDs[k]
	g.mu.RUnlock()
	if ok {
		return id
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if id, ok := g.linkIDs[k]; ok {
		return id
	}
	id = LinkID(len(g.links))
	g.linkIDs[k] = id
	g.links = append(g.links, k)
	return id
}

// LinkOf resolves a link ID to its endpoint address IDs.
func (g *Registry) LinkOf(id LinkID) (near, far AddrID) {
	g.mu.RLock()
	k := g.links[id]
	g.mu.RUnlock()
	return AddrID(k >> 32), AddrID(k & 0xffffffff)
}

// LinkKeyOf resolves a link ID to the trace.LinkKey reports carry.
func (g *Registry) LinkKeyOf(id LinkID) trace.LinkKey {
	g.mu.RLock()
	k := g.links[id]
	near := g.addrs[AddrID(k>>32)]
	far := g.addrs[AddrID(k&0xffffffff)]
	g.mu.RUnlock()
	return trace.LinkKey{Near: near, Far: far}
}

// LookupLink returns the ID of an already-interned link without interning;
// ok is false when either endpoint or the pair is unknown.
func (g *Registry) LookupLink(key trace.LinkKey) (LinkID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	near, ok := g.addrIDs[key.Near]
	if !ok {
		return 0, false
	}
	far, ok := g.addrIDs[key.Far]
	if !ok {
		return 0, false
	}
	id, ok := g.linkIDs[mkPair(near, far)]
	return id, ok
}

// Flow interns the (router, destination) pair of one forwarding pattern.
func (g *Registry) Flow(router, dst AddrID) FlowID {
	k := mkPair(router, dst)
	g.mu.RLock()
	id, ok := g.flowIDs[k]
	g.mu.RUnlock()
	if ok {
		return id
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if id, ok := g.flowIDs[k]; ok {
		return id
	}
	id = FlowID(len(g.flows))
	g.flowIDs[k] = id
	g.flows = append(g.flows, k)
	return id
}

// FlowOf resolves a flow ID to its (router, destination) address IDs.
func (g *Registry) FlowOf(id FlowID) (router, dst AddrID) {
	g.mu.RLock()
	k := g.flows[id]
	g.mu.RUnlock()
	return AddrID(k >> 32), AddrID(k & 0xffffffff)
}

// FlowAddrsOf resolves a flow ID to the (router, destination) addresses.
func (g *Registry) FlowAddrsOf(id FlowID) (router, dst netip.Addr) {
	g.mu.RLock()
	k := g.flows[id]
	router = g.addrs[AddrID(k>>32)]
	dst = g.addrs[AddrID(k&0xffffffff)]
	g.mu.RUnlock()
	return router, dst
}

// LookupFlow returns the ID of an already-interned flow without interning.
func (g *Registry) LookupFlow(router, dst netip.Addr) (FlowID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	r, ok := g.addrIDs[router]
	if !ok {
		return 0, false
	}
	d, ok := g.addrIDs[dst]
	if !ok {
		return 0, false
	}
	id, ok := g.flowIDs[mkPair(r, d)]
	return id, ok
}

// Router interns an address into the router ID space.
func (g *Registry) Router(a AddrID) RouterID {
	g.mu.RLock()
	id, ok := g.routerIDs[a]
	g.mu.RUnlock()
	if ok {
		return id
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if id, ok := g.routerIDs[a]; ok {
		return id
	}
	id = RouterID(len(g.routers))
	g.routerIDs[a] = id
	g.routers = append(g.routers, a)
	return id
}

// RouterAddrOf resolves a router ID back to its address ID.
func (g *Registry) RouterAddrOf(id RouterID) AddrID {
	g.mu.RLock()
	a := g.routers[id]
	g.mu.RUnlock()
	return a
}

// GrowTable extends a dense ID-indexed side table to n entries, filling
// the new entries with fill. Capacity doubles (with a small floor) so
// repeated one-ID extensions amortize to O(1); both detectors size their
// columnar slot tables with it.
func GrowTable[T any](s []T, n int, fill T) []T {
	if c := cap(s); n > c {
		if 2*c > n {
			n = 2 * c
		}
		if n < 64 {
			n = 64
		}
		grown := make([]T, len(s), n)
		copy(grown, s)
		s = grown
	}
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}

// Grow returns s with room for n more elements. It grows by an eighth,
// not by append's doubling: the detectors' open-bin buffers, hop arenas
// and slot arrays keep their peak capacity for the whole run, so their
// slack is state a detector retains, while the copies a small step costs
// are paid only while they still grow.
func Grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	c := len(s) + n
	return append(make([]T, 0, max(c+c/8, 64)), s...)
}

// pairTable is a flat open-addressing table from a 64-bit key to a 32-bit
// id: a multiplicative hash picks the home slot, collisions probe linearly,
// and the slot array doubles past 3/4 full. A hit is one multiply and,
// usually, one slot read — no hashing call, no bucket walk. The Interner
// keys its IPv4 addresses, links and flows through it.
type pairTable struct {
	slots []pairSlot // power-of-two length
	shift uint       // 64 - log2(len(slots)): the hash's top bits index the slots
	n     int        // occupied slots
}

// pairSlot holds one key and its id+1, so the zero slot is the empty one.
// Registry ids are dense counts of interned entities, far below 2³²−1.
type pairSlot struct {
	key uint64
	id1 uint32
}

const pairTableBits = 4 // a fresh table has 1<<pairTableBits slots

func newPairTable() pairTable {
	return pairTable{slots: make([]pairSlot, 1<<pairTableBits), shift: 64 - pairTableBits}
}

// slot returns k's slot, or the empty slot where k belongs.
func (t *pairTable) slot(k uint64) *pairSlot {
	mask := uint64(len(t.slots) - 1)
	for i := k * 0x9e3779b97f4a7c15 >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.id1 == 0 || s.key == k {
			return s
		}
	}
}

// get returns k's id.
func (t *pairTable) get(k uint64) (uint32, bool) {
	s := t.slot(k)
	return s.id1 - 1, s.id1 != 0
}

// put records id for k, which must be absent.
func (t *pairTable) put(k uint64, id uint32) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots, t.shift = make([]pairSlot, 2*len(old)), t.shift-1
		for _, s := range old {
			if s.id1 != 0 {
				*t.slot(s.key) = s
			}
		}
	}
	*t.slot(k) = pairSlot{key: k, id1: id + 1}
	t.n++
}

// Interner is a single-goroutine memo in front of a shared Registry. The
// extraction hot path interns every address of every reply; paying two
// atomic operations per lookup (the registry's RWMutex fast path) costs
// more than the lookup itself. An Interner gives the owning goroutine
// plain non-atomic table hits and falls through to the locked registry
// only on first sight of an entity, so steady-state interning is lock-free
// while the registry stays safe for every other goroutine.
//
// An Interner is NOT safe for concurrent use; create one per extracting
// goroutine over the same Registry. IDs are identical across interners by
// construction (the registry assigns them).
type Interner struct {
	reg   *Registry
	v4    pairTable             // IPv4 addresses by big-endian value
	addrs map[netip.Addr]AddrID // every other address
	links pairTable
	flows pairTable

	routerOf []RouterID // by AddrID, dense; noRouter until first asked
	scratch  trace.View // see ScratchView

	// One-slot memos: the last address, link and flow interned — a hop's
	// replies usually share one address, a hop pair's combinations one link.
	// The address memo's zero value is coherent: zero Addr ↔ ZeroAddr.
	memoAddr    netip.Addr
	memoAddrID  AddrID
	memoLink    pairKey
	memoLinkID  LinkID
	memoLinkSet bool
	memoFlow    pairKey
	memoFlowID  FlowID
	memoFlowSet bool
}

const noRouter = ^RouterID(0)

// NewInterner returns an empty memo over reg.
func NewInterner(reg *Registry) *Interner {
	return &Interner{
		reg:   reg,
		v4:    newPairTable(),
		addrs: map[netip.Addr]AddrID{{}: ZeroAddr},
		links: newPairTable(),
		flows: newPairTable(),
	}
}

// Registry returns the shared registry behind the memo.
func (in *Interner) Registry() *Registry { return in.reg }

// Addr interns an address through the memo.
func (in *Interner) Addr(a netip.Addr) AddrID {
	if a == in.memoAddr {
		return in.memoAddrID
	}
	var id AddrID
	if a.Is4() {
		a4 := a.As4()
		id = AddrID(in.AddrV4(binary.BigEndian.Uint32(a4[:])))
	} else {
		var ok bool
		if id, ok = in.addrs[a]; !ok {
			id = in.reg.Addr(a)
			in.addrs[a] = id
		}
	}
	in.memoAddr, in.memoAddrID = a, id
	return id
}

// AddrV4 interns the IPv4 address with big-endian value v: the id Addr
// gives that address, without forming it. With AddrText it makes an
// Interner the trace.AddrInterner that trace.Decoder.DecodeView wants.
func (in *Interner) AddrV4(v uint32) uint32 {
	id, ok := in.v4.get(uint64(v))
	if !ok {
		id = uint32(in.reg.Addr(netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})))
		in.v4.put(uint64(v), id)
	}
	return id
}

// AddrText interns an address from its wire text — the id Addr gives the
// parsed address, or netip.ParseAddr's error. A dotted quad is AddrV4 of
// its value and forms no netip.Addr.
func (in *Interner) AddrText(b []byte) (uint32, error) {
	if v, ok := trace.ParseV4(b); ok {
		return in.AddrV4(v), nil
	}
	a, err := netip.ParseAddr(string(b))
	if err != nil {
		return 0, err
	}
	return uint32(in.Addr(a)), nil
}

// View fills v with the interned form of r (see trace.View): the other
// producer of views, for everything that already holds a Result.
func (in *Interner) View(r *trace.Result, v *trace.View) {
	v.Fill(r, in.addrID)
}

func (in *Interner) addrID(a netip.Addr) uint32 { return uint32(in.Addr(a)) }

// ScratchView is View into the interner's own reusable View, for callers
// that are done with one result's view before they ask for the next.
func (in *Interner) ScratchView(r *trace.Result) *trace.View {
	in.View(r, &in.scratch)
	return &in.scratch
}

// Link interns the ordered address pair (near, far) through the memo.
func (in *Interner) Link(near, far AddrID) LinkID {
	k := mkPair(near, far)
	if in.memoLinkSet && k == in.memoLink {
		return in.memoLinkID
	}
	id, ok := in.links.get(uint64(k))
	if !ok {
		id = uint32(in.reg.Link(near, far))
		in.links.put(uint64(k), id)
	}
	in.memoLink, in.memoLinkID, in.memoLinkSet = k, LinkID(id), true
	return LinkID(id)
}

// Flow interns the (router, destination) pair through the memo.
func (in *Interner) Flow(router, dst AddrID) FlowID {
	k := mkPair(router, dst)
	if in.memoFlowSet && k == in.memoFlow {
		return in.memoFlowID
	}
	id, ok := in.flows.get(uint64(k))
	if !ok {
		id = uint32(in.reg.Flow(router, dst))
		in.flows.put(uint64(k), id)
	}
	in.memoFlow, in.memoFlowID, in.memoFlowSet = k, FlowID(id), true
	return FlowID(id)
}

// Router interns an address into the router ID space through the memo.
func (in *Interner) Router(a AddrID) RouterID {
	if int(a) < len(in.routerOf) && in.routerOf[a] != noRouter {
		return in.routerOf[a]
	}
	id := in.reg.Router(a)
	in.routerOf = GrowTable(in.routerOf, int(a)+1, noRouter)
	in.routerOf[a] = id
	return id
}

// Addrs returns how many addresses have been interned (including the
// reserved zero address).
func (g *Registry) Addrs() int {
	g.mu.RLock()
	n := len(g.addrs)
	g.mu.RUnlock()
	return n
}

// Links returns how many links have been interned.
func (g *Registry) Links() int {
	g.mu.RLock()
	n := len(g.links)
	g.mu.RUnlock()
	return n
}

// Flows returns how many forwarding flows have been interned.
func (g *Registry) Flows() int {
	g.mu.RLock()
	n := len(g.flows)
	g.mu.RUnlock()
	return n
}

// Routers returns how many router addresses have been interned.
func (g *Registry) Routers() int {
	g.mu.RLock()
	n := len(g.routers)
	g.mu.RUnlock()
	return n
}
