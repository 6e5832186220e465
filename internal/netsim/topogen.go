package netsim

import (
	"fmt"
	"math/rand/v2"
	"net/netip"

	"pinpoint/internal/ipmap"
)

// Routers per mid-tier transit AS and per stub AS.
const (
	routersPerTransit = 3
	routersPerStub    = 2
)

// TopoConfig parameterizes the random Internet-like topology generator.
// Zero fields take the defaults noted on each field.
type TopoConfig struct {
	Seed uint64

	// IPv6 generates an IPv6 Internet instead of IPv4 (the paper analyzes
	// both families with identical methods; 1.2 B IPv6 traceroutes in §2).
	// Everything downstream — detectors, aggregation, LPM — is address-
	// family agnostic.
	IPv6 bool

	Tier1   int // number of tier-1 (transit-free) ASes; default 4
	Transit int // number of mid-tier transit ASes; default 10
	Stub    int // number of stub (probe-hosting) ASes; default 30

	RoutersPerTier1 int // backbone routers per tier-1; default 5

	IXPs          int // number of exchange points; default 1
	IXPMembers    int // member ASes per IXP (from transit+tier1); default 8
	Roots         int // number of anycast root-like services; default 3
	RootInstances int // anycast instances per root; default 6
	Anchors       int // unicast anchor services on stub ASes; default 10
}

func (c TopoConfig) withDefaults() TopoConfig {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.Tier1, 4)
	def(&c.Transit, 10)
	def(&c.Stub, 30)
	def(&c.RoutersPerTier1, 5)
	def(&c.IXPs, 1)
	def(&c.IXPMembers, 8)
	def(&c.Roots, 3)
	def(&c.RootInstances, 6)
	def(&c.Anchors, 10)
	return c
}

// ASInfo describes one generated AS.
type ASInfo struct {
	ASN     ipmap.ASN
	Name    string
	Routers []RouterID
	Border  []RouterID // routers with inter-AS links
}

// IXPInfo describes one generated exchange point: a peering LAN whose
// interface addresses come from the IXP prefix (and therefore map to the
// IXP's ASN under longest-prefix match, like the AMS-IX peering LAN of
// §7.3) while each interface operationally belongs to a member AS.
type IXPInfo struct {
	ASN      ipmap.ASN
	Name     string
	Prefix   string
	Members  []ipmap.ASN
	Ifaces   []RouterID // one LAN-facing interface router per member
	Backbone []RouterID // the member backbone router behind each interface
}

// RootInfo describes one anycast root-like service (cf. the DNS root
// servers of §7.1).
type RootInfo struct {
	Addr      netip.Addr
	ASN       ipmap.ASN  // operator AS, e.g. the paper's AS25152 for K-root
	Instances []RouterID // instance routers inside the operator AS
	Sites     []RouterID // the transit/IXP routers each instance attaches to
}

// AnchorInfo describes one unicast anchor-like measurement target.
type AnchorInfo struct {
	Addr   netip.Addr
	ASN    ipmap.ASN
	Router RouterID
}

// Topo is the output of Generate: a Builder pre-populated with the topology
// plus the inventory needed to attach probes, build scenarios, and pick
// measurement targets. Call Build (or Builder.Build) to finalize.
type Topo struct {
	Builder *Builder
	Cfg     TopoConfig

	Tier1   []ASInfo
	Transit []ASInfo
	Stub    []ASInfo
	IXPs    []IXPInfo
	Roots   []RootInfo
	Anchors []AnchorInfo
}

// Build finalizes the network with the given scenario.
func (t *Topo) Build(scenario *Scenario) (*Net, error) { return t.Builder.Build(scenario) }

// ProbeSites returns one router per stub AS, the canonical probe attachment
// points.
func (t *Topo) ProbeSites() []RouterID {
	out := make([]RouterID, 0, len(t.Stub))
	for _, as := range t.Stub {
		out = append(out, as.Routers[0])
	}
	return out
}

// Targets returns every measurement target address: all roots then all
// anchors.
func (t *Topo) Targets() []netip.Addr {
	var out []netip.Addr
	for _, r := range t.Roots {
		out = append(out, r.Addr)
	}
	for _, a := range t.Anchors {
		out = append(out, a.Addr)
	}
	return out
}

// ASN blocks used by the generator. They are arbitrary but stable, so tests
// and experiment narratives can reference them.
const (
	Tier1ASNBase   ipmap.ASN = 1000
	TransitASNBase ipmap.ASN = 2000
	StubASNBase    ipmap.ASN = 3000
	IXPASNBase     ipmap.ASN = 1200 // first IXP gets 1200, echoing AMS-IX
	RootASNBase    ipmap.ASN = 25100
)

// ASPrefix returns the canonical /24 prefix the generator (and fixtures)
// assign to an AS number: 10.<asn high byte>.<asn low byte>.0/24.
func ASPrefix(asn ipmap.ASN) string {
	return fmt.Sprintf("10.%d.%d.0/24", (uint32(asn)>>8)&255, uint32(asn)&255)
}

// ASPrefix6 is the IPv6 equivalent: fd00:<asn>::/48 (ULA space).
func ASPrefix6(asn ipmap.ASN) string {
	return fmt.Sprintf("fd00:%x::/48", uint32(asn))
}

type addrPlan struct{ v6 bool }

func (a addrPlan) asPrefix(asn ipmap.ASN) string {
	if a.v6 {
		return ASPrefix6(asn)
	}
	return ASPrefix(asn)
}

func (a addrPlan) ixpPrefix(i int) string {
	if a.v6 {
		return fmt.Sprintf("2001:7f8:%x::/64", 192+i)
	}
	return fmt.Sprintf("80.81.%d.0/24", 192+i)
}

func (a addrPlan) rootAddr(i int) string {
	if a.v6 {
		return fmt.Sprintf("2001:500:%x::129", 14+i)
	}
	return fmt.Sprintf("193.0.%d.129", 14+i)
}

func (a addrPlan) rootPrefix(i int) string {
	if a.v6 {
		return fmt.Sprintf("2001:500:%x::/48", 14+i)
	}
	return fmt.Sprintf("193.0.%d.0/24", 14+i)
}

func (a addrPlan) anchorAddr(asn ipmap.ASN) string {
	if a.v6 {
		return fmt.Sprintf("fd00:%x::2:200", uint32(asn))
	}
	return fmt.Sprintf("10.%d.%d.200", (uint32(asn)>>8)&255, uint32(asn)&255)
}

// Generate builds a random hierarchical topology:
//
//   - tier-1 ASes are internally ring+chord connected and fully meshed with
//     each other,
//   - transit ASes home to 2 upstreams (tier-1 or earlier transit),
//   - stub ASes home to 1–3 transit upstreams,
//   - IXP peering LANs interconnect a sample of transit/tier-1 members,
//   - anycast roots place instances behind diverse transit/IXP sites,
//   - anchors sit in stub ASes.
//
// Per-direction routing weights are independently jittered around the link
// delay, so forward and return paths frequently diverge — the property the
// differential-RTT method is designed around (§3, challenge 1).
func Generate(cfg TopoConfig) (*Topo, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15))
	b := NewBuilder()
	t := &Topo{Builder: b, Cfg: cfg}

	jw := func(base float64) (float64, float64) {
		// Per-direction weights: delay scaled by nearly independent factors
		// (hot-potato routing prices each direction separately). The wide
		// spread is what makes most paths asymmetric, matching the
		// asymmetry statistics the paper cites (~90% at AS level).
		return base * (0.3 + 1.4*rng.Float64()), base * (0.3 + 1.4*rng.Float64())
	}
	link := func(a, z RouterID, delay float64) {
		wab, wba := jw(delay)
		b.Link(a, z, LinkOpts{DelayMS: delay, WeightAB: wab, WeightBA: wba})
	}
	plan := addrPlan{v6: cfg.IPv6}

	// --- Tier-1 ---
	for i := 0; i < cfg.Tier1; i++ {
		asn := Tier1ASNBase + ipmap.ASN(i)
		name := fmt.Sprintf("T1-%d", i)
		b.AS(asn, name, plan.asPrefix(asn))
		info := ASInfo{ASN: asn, Name: name}
		for r := 0; r < cfg.RoutersPerTier1; r++ {
			id := b.Router(asn, fmt.Sprintf("%s-r%d", name, r), RouterOpts{})
			info.Routers = append(info.Routers, id)
		}
		// Ring plus chords for intra-AS redundancy.
		n := len(info.Routers)
		for r := 0; r < n; r++ {
			link(info.Routers[r], info.Routers[(r+1)%n], 1+4*rng.Float64())
		}
		if n > 3 {
			link(info.Routers[0], info.Routers[n/2], 2+4*rng.Float64())
		}
		t.Tier1 = append(t.Tier1, info)
	}
	// Full mesh between tier-1s (three peering links each pair for
	// diversity).
	for i := 0; i < len(t.Tier1); i++ {
		for j := i + 1; j < len(t.Tier1); j++ {
			for k := 0; k < 3; k++ {
				a := pick(rng, t.Tier1[i].Routers)
				z := pick(rng, t.Tier1[j].Routers)
				link(a, z, 5+25*rng.Float64())
				t.Tier1[i].Border = append(t.Tier1[i].Border, a)
				t.Tier1[j].Border = append(t.Tier1[j].Border, z)
			}
		}
	}

	// --- Transit ---
	for i := 0; i < cfg.Transit; i++ {
		asn := TransitASNBase + ipmap.ASN(i)
		name := fmt.Sprintf("TR-%d", i)
		b.AS(asn, name, plan.asPrefix(asn))
		info := ASInfo{ASN: asn, Name: name}
		for r := 0; r < routersPerTransit; r++ {
			id := b.Router(asn, fmt.Sprintf("%s-r%d", name, r), RouterOpts{})
			info.Routers = append(info.Routers, id)
			if r > 0 {
				link(info.Routers[r-1], id, 1+3*rng.Float64())
			}
		}
		if len(info.Routers) > 2 {
			link(info.Routers[0], info.Routers[len(info.Routers)-1], 1+3*rng.Float64())
		}
		// Two or three upstreams: tier-1s, or an earlier transit for depth.
		ups := 2 + rng.IntN(2)
		for u := 0; u < ups; u++ {
			var up RouterID
			if i > 0 && rng.Float64() < 0.3 {
				up = pick(rng, t.Transit[rng.IntN(i)].Routers)
			} else {
				up = pick(rng, t.Tier1[rng.IntN(len(t.Tier1))].Routers)
			}
			border := pick(rng, info.Routers)
			link(border, up, 2+18*rng.Float64())
			info.Border = append(info.Border, border)
		}
		// Lateral peering with an earlier transit increases path diversity,
		// a prerequisite for forward/return asymmetry.
		if i > 0 && rng.Float64() < 0.6 {
			peer := pick(rng, t.Transit[rng.IntN(i)].Routers)
			border := pick(rng, info.Routers)
			link(border, peer, 2+10*rng.Float64())
			info.Border = append(info.Border, border)
		}
		t.Transit = append(t.Transit, info)
	}

	// --- Stubs ---
	for i := 0; i < cfg.Stub; i++ {
		asn := StubASNBase + ipmap.ASN(i)
		name := fmt.Sprintf("ST-%d", i)
		b.AS(asn, name, plan.asPrefix(asn))
		info := ASInfo{ASN: asn, Name: name}
		for r := 0; r < routersPerStub; r++ {
			id := b.Router(asn, fmt.Sprintf("%s-r%d", name, r), RouterOpts{})
			info.Routers = append(info.Routers, id)
			if r > 0 {
				link(info.Routers[r-1], id, 0.5+2*rng.Float64())
			}
		}
		ups := 2 + rng.IntN(2)
		for u := 0; u < ups; u++ {
			up := pick(rng, t.Transit[rng.IntN(len(t.Transit))].Routers)
			border := pick(rng, info.Routers)
			link(border, up, 1+9*rng.Float64())
			info.Border = append(info.Border, border)
		}
		t.Stub = append(t.Stub, info)
	}

	// --- IXPs ---
	for i := 0; i < cfg.IXPs; i++ {
		asn := IXPASNBase + ipmap.ASN(i)
		name := fmt.Sprintf("IXP-%d", i)
		prefix := plan.ixpPrefix(i)
		b.AS(asn, name, prefix)
		ixp := IXPInfo{ASN: asn, Name: name, Prefix: prefix}
		// Sample distinct members from transit then tier-1 ASes.
		pool := append(append([]ASInfo{}, t.Transit...), t.Tier1...)
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		m := cfg.IXPMembers
		if m > len(pool) {
			m = len(pool)
		}
		for mi, member := range pool[:m] {
			backbone := pick(rng, member.Routers)
			iface := b.RouterAt(member.ASN, fmt.Sprintf("%s-%s-if", name, member.Name),
				lanAddr(prefix, mi+1), RouterOpts{})
			// LAN interfaces answer traceroute reliably in normal times.
			b.Link(backbone, iface, LinkOpts{DelayMS: 0.2, WeightAB: 0.2, WeightBA: 0.2})
			ixp.Members = append(ixp.Members, member.ASN)
			ixp.Ifaces = append(ixp.Ifaces, iface)
			ixp.Backbone = append(ixp.Backbone, backbone)
		}
		// Peering LAN: full mesh of member interfaces. Delay is tiny but the
		// routing weight is moderate, so peering wins for member-to-member
		// traffic without becoming a global symmetric shortcut.
		for a := 0; a < len(ixp.Ifaces); a++ {
			for z := a + 1; z < len(ixp.Ifaces); z++ {
				wab, wba := jw(4)
				b.Link(ixp.Ifaces[a], ixp.Ifaces[z], LinkOpts{DelayMS: 0.3, WeightAB: wab, WeightBA: wba})
			}
		}
		t.IXPs = append(t.IXPs, ixp)
	}

	// --- Anycast roots ---
	for i := 0; i < cfg.Roots; i++ {
		asn := RootASNBase + ipmap.ASN(i)
		name := fmt.Sprintf("ROOT-%c", 'K'+i)
		b.AS(asn, name, plan.asPrefix(asn))
		root := RootInfo{ASN: asn, Addr: netip.MustParseAddr(plan.rootAddr(i))}
		// Attach instances behind diverse sites: prefer IXP backbones,
		// then transit routers.
		var sites []RouterID
		for _, ixp := range t.IXPs {
			sites = append(sites, ixp.Backbone...)
		}
		for _, tr := range t.Transit {
			sites = append(sites, tr.Routers...)
		}
		rng.Shuffle(len(sites), func(a, b int) { sites[a], sites[b] = sites[b], sites[a] })
		ni := cfg.RootInstances
		if ni > len(sites) {
			ni = len(sites)
		}
		for inst := 0; inst < ni; inst++ {
			r := b.Router(asn, fmt.Sprintf("%s-i%d", name, inst), RouterOpts{})
			site := sites[inst]
			b.Link(site, r, LinkOpts{DelayMS: 0.5, WeightAB: 0.5, WeightBA: 0.5})
			root.Instances = append(root.Instances, r)
			root.Sites = append(root.Sites, site)
		}
		b.Service(root.Addr.String(), asn, plan.rootPrefix(i), root.Instances...)
		t.Roots = append(t.Roots, root)
	}

	// --- Anchors ---
	for i := 0; i < cfg.Anchors; i++ {
		as := t.Stub[i%len(t.Stub)]
		r := pick(rng, as.Routers)
		addr := plan.anchorAddr(as.ASN)
		b.Service(addr, as.ASN, "", r)
		t.Anchors = append(t.Anchors, AnchorInfo{Addr: netip.MustParseAddr(addr), ASN: as.ASN, Router: r})
	}

	if b.err != nil {
		return nil, b.err
	}
	return t, nil
}

func pick(rng *rand.Rand, ids []RouterID) RouterID { return ids[rng.IntN(len(ids))] }

func lanAddr(prefix string, host int) string {
	p := netip.MustParsePrefix(prefix)
	a := p.Addr()
	h := (host-1)%250 + 1
	for i := 0; i < h; i++ {
		a = a.Next()
	}
	return a.String()
}
