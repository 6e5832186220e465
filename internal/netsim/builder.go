package netsim

import (
	"fmt"
	"net/netip"

	"pinpoint/internal/ipmap"
)

// Builder assembles a Net. Methods record the first error encountered and
// turn subsequent calls into no-ops; Build returns that error. This keeps
// topology construction code linear and readable.
type Builder struct {
	routers  []Router
	edges    []Edge
	prefixes ipmap.Table
	services map[netip.Addr][]RouterID
	byAddr   map[netip.Addr]RouterID

	asPrefix map[ipmap.ASN]netip.Prefix
	asNext   map[ipmap.ASN]int // next host offset within the AS prefix
	asName   map[ipmap.ASN]string

	artifacts Artifacts
	aliases   []netip.Addr // lazily allocated per-router alias addresses
	stale     []netip.Addr // lazily allocated per-router stale (lying) addresses

	err error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		services: make(map[netip.Addr][]RouterID),
		byAddr:   make(map[netip.Addr]RouterID),
		asPrefix: make(map[ipmap.ASN]netip.Prefix),
		asNext:   make(map[ipmap.ASN]int),
		asName:   make(map[ipmap.ASN]string),
	}
}

func (b *Builder) fail(format string, args ...interface{}) {
	if b.err == nil {
		b.err = fmt.Errorf("netsim: "+format, args...)
	}
}

// AS registers an autonomous system and the prefix it announces. Routers of
// the AS are auto-addressed from the prefix.
func (b *Builder) AS(asn ipmap.ASN, name, prefix string) {
	if b.err != nil {
		return
	}
	p, err := netip.ParsePrefix(prefix)
	if err != nil {
		b.fail("AS%d prefix %q: %v", asn, prefix, err)
		return
	}
	if _, dup := b.asPrefix[asn]; dup {
		b.fail("AS%d registered twice", asn)
		return
	}
	b.asPrefix[asn] = p.Masked()
	b.asNext[asn] = 1
	b.asName[asn] = name
	if err := b.prefixes.Add(p, asn); err != nil {
		b.fail("AS%d: %v", asn, err)
	}
}

// RouterOpts tunes router behaviour; a zero ResponseProb takes the
// default 0.99.
type RouterOpts struct {
	ResponseProb float64
}

// Router adds a router to a registered AS, assigning it the next free
// address of the AS prefix, and returns its id.
func (b *Builder) Router(asn ipmap.ASN, name string, opts RouterOpts) RouterID {
	if b.err != nil {
		return NoRouter
	}
	p, ok := b.asPrefix[asn]
	if !ok {
		b.fail("router %q: AS%d not registered", name, asn)
		return NoRouter
	}
	addr, err := hostAddr(p, b.asNext[asn])
	if err != nil {
		b.fail("router %q: %v", name, err)
		return NoRouter
	}
	b.asNext[asn]++
	return b.addRouter(asn, name, addr, opts)
}

// RouterAt adds a router with an explicit interface address (which must not
// collide with an existing one). The address does not have to fall inside
// the AS prefix: exchange-point fabrics assign members addresses from the
// IXP prefix while the router operationally belongs to the member AS, and
// reproducing the AMS-IX case (§7.3) needs exactly that split.
func (b *Builder) RouterAt(asn ipmap.ASN, name, addr string, opts RouterOpts) RouterID {
	if b.err != nil {
		return NoRouter
	}
	a, err := netip.ParseAddr(addr)
	if err != nil {
		b.fail("router %q address %q: %v", name, addr, err)
		return NoRouter
	}
	return b.addRouter(asn, name, a, opts)
}

func (b *Builder) addRouter(asn ipmap.ASN, name string, addr netip.Addr, opts RouterOpts) RouterID {
	if _, dup := b.byAddr[addr]; dup {
		b.fail("router %q: address %v already in use", name, addr)
		return NoRouter
	}
	if opts.ResponseProb == 0 {
		opts.ResponseProb = 0.99
	}
	id := RouterID(len(b.routers))
	b.routers = append(b.routers, Router{
		ID:           id,
		Addr:         addr,
		AS:           asn,
		Name:         name,
		ResponseProb: opts.ResponseProb,
	})
	b.byAddr[addr] = id
	return id
}

// linkLoss is every link's baseline per-packet loss probability.
const linkLoss = 0.0005

// LinkOpts tunes one physical link (two directional edges). Zero fields take
// defaults: Jitter = 5% of the base delay (min 0.02 ms), Weight = base delay
// per direction, default spike noise. The baseline loss is linkLoss; loss
// is its test seam (0 takes linkLoss).
type LinkOpts struct {
	DelayMS     float64 // one-way base delay, required (> 0)
	JitterMS    float64 // both dirs
	WeightAB    float64 // routing weight A→B
	WeightBA    float64 // routing weight B→A
	loss        float64
	SpikeProb   float64
	SpikeMS     float64
	OutlierProb float64 // rare huge measurement-error spikes (both dirs)
	OutlierMS   float64
	DelayBAMS   float64 // one-way base delay B→A; 0 → same as DelayMS
}

// Link connects two routers with a bidirectional link and returns the edge
// ids (a→b, b→a).
func (b *Builder) Link(a, z RouterID, opts LinkOpts) (ab, ba EdgeID) {
	if b.err != nil {
		return -1, -1
	}
	if a == NoRouter || z == NoRouter || int(a) >= len(b.routers) || int(z) >= len(b.routers) {
		b.fail("link references unknown router (%d, %d)", a, z)
		return -1, -1
	}
	if a == z {
		b.fail("self-link on router %d", a)
		return -1, -1
	}
	if opts.DelayMS <= 0 {
		b.fail("link %d-%d: DelayMS must be > 0", a, z)
		return -1, -1
	}
	jit := opts.JitterMS
	if jit == 0 {
		jit = opts.DelayMS * 0.05
		if jit < 0.02 {
			jit = 0.02
		}
	}
	delayBA := opts.DelayBAMS
	if delayBA == 0 {
		delayBA = opts.DelayMS
	}
	wAB, wBA := opts.WeightAB, opts.WeightBA
	if wAB == 0 {
		wAB = opts.DelayMS
	}
	if wBA == 0 {
		wBA = delayBA
	}
	loss := opts.loss
	if loss == 0 {
		loss = linkLoss
	}
	spikeProb := opts.SpikeProb
	if spikeProb == 0 {
		spikeProb = defaultSpikeProb
	}
	spikeMS := opts.SpikeMS
	if spikeMS == 0 {
		spikeMS = defaultSpikeMS
	}
	mk := func(from, to RouterID, base, jitter, weight float64) EdgeID {
		id := EdgeID(len(b.edges))
		b.edges = append(b.edges, Edge{
			ID: id, From: from, To: to, Weight: weight,
			Delay: DelayModel{
				BaseMS: base, JitterMS: jitter,
				SpikeProb: spikeProb, SpikeMS: spikeMS,
				OutlierProb: opts.OutlierProb, OutlierMS: opts.OutlierMS,
			},
			Loss: loss,
		})
		return id
	}
	ab = mk(a, z, opts.DelayMS, jit, wAB)
	ba = mk(z, a, delayBA, jit, wBA)
	return ab, ba
}

// Service attaches an externally visible service address to one or more
// instance routers. One instance models a unicast service (an Atlas anchor,
// say); several model anycast (the DNS root servers of §7.1). The address
// must not collide with a router interface address.
func (b *Builder) Service(addr string, asn ipmap.ASN, prefix string, instances ...RouterID) {
	if b.err != nil {
		return
	}
	a, err := netip.ParseAddr(addr)
	if err != nil {
		b.fail("service address %q: %v", addr, err)
		return
	}
	if len(instances) == 0 {
		b.fail("service %v has no instances", a)
		return
	}
	if _, dup := b.byAddr[a]; dup {
		b.fail("service %v collides with a router address", a)
		return
	}
	if _, dup := b.services[a]; dup {
		b.fail("service %v registered twice", a)
		return
	}
	for _, id := range instances {
		if id == NoRouter || int(id) >= len(b.routers) {
			b.fail("service %v references unknown router %d", a, id)
			return
		}
	}
	if prefix != "" {
		p, err := netip.ParsePrefix(prefix)
		if err != nil {
			b.fail("service %v prefix %q: %v", a, prefix, err)
			return
		}
		if err := b.prefixes.Add(p, asn); err != nil {
			b.fail("service %v: %v", a, err)
			return
		}
	}
	b.services[a] = append([]RouterID(nil), instances...)
}

// SetArtifacts attaches a measurement-artifact configuration; subsequent
// Build calls bake it into the returned Net. The zero Artifacts value (the
// default) injects nothing and leaves the traceroute engine's PRNG draw
// sequence untouched.
func (b *Builder) SetArtifacts(a Artifacts) {
	if b.err != nil {
		return
	}
	if err := a.validate(); err != nil {
		b.err = err
		return
	}
	b.artifacts = a
}

// allocAliases assigns each router a second interface address from its AS
// prefix (skipping routers whose AS is unregistered or exhausted). The
// allocation happens once per Builder and is reused by later Build calls, so
// building the same topology twice — the planning pattern of the case
// studies — yields identical aliases.
func (b *Builder) allocAliases() []netip.Addr {
	if b.aliases != nil {
		return b.aliases
	}
	aliases := make([]netip.Addr, len(b.routers))
	for _, r := range b.routers {
		p, ok := b.asPrefix[r.AS]
		if !ok {
			continue
		}
		addr, err := hostAddr(p, b.asNext[r.AS])
		if err != nil {
			continue // prefix exhausted: this router keeps a single address
		}
		b.asNext[r.AS]++
		if _, dup := b.byAddr[addr]; dup {
			continue
		}
		if _, dup := b.services[addr]; dup {
			continue
		}
		aliases[r.ID] = addr
	}
	b.aliases = aliases
	return aliases
}

// allocStale assigns each router a stale interface address used as the
// forged reply source during lying-hop bursts. The address is drawn from
// the prefix of the router's first cross-AS neighbor (falling back to its
// own AS when it has none): real stale interfaces keep addresses from old
// peering allocations, so the forged replies land in the *wrong* AS group —
// without the cross-AS misattribution, the forged hop's positive
// responsibility and the real hop's negative responsibility cancel inside
// one AS series (the paper's intra-AS rerouting mitigation) and the
// artifact would be invisible to the event layer it is meant to stress.
// Like allocAliases it is idempotent, so repeated Build calls on one
// Builder yield identical addresses; routers whose chosen AS is
// unregistered or exhausted keep their own address, which neutralizes the
// artifact for them.
func (b *Builder) allocStale() []netip.Addr {
	if b.stale != nil {
		return b.stale
	}
	staleAS := make([]ipmap.ASN, len(b.routers))
	for _, r := range b.routers {
		staleAS[r.ID] = r.AS
	}
	crossAS := make([]bool, len(b.routers))
	for _, e := range b.edges { // edges scanned in creation order: deterministic
		if !crossAS[e.From] && b.routers[e.To].AS != b.routers[e.From].AS {
			staleAS[e.From] = b.routers[e.To].AS
			crossAS[e.From] = true
		}
	}
	stale := make([]netip.Addr, len(b.routers))
	for _, r := range b.routers {
		stale[r.ID] = r.Addr // fallback: artifact no-op
		asn := staleAS[r.ID]
		p, ok := b.asPrefix[asn]
		if !ok {
			continue
		}
		addr, err := hostAddr(p, b.asNext[asn])
		if err != nil {
			continue
		}
		b.asNext[asn]++
		if _, dup := b.byAddr[addr]; dup {
			continue
		}
		if _, dup := b.services[addr]; dup {
			continue
		}
		stale[r.ID] = addr
	}
	b.stale = stale
	return stale
}

// Build finalizes the network with the given scenario (nil for none).
func (b *Builder) Build(scenario *Scenario) (*Net, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.routers) == 0 {
		return nil, fmt.Errorf("netsim: no routers")
	}
	if scenario == nil {
		scenario = NewScenario()
	}
	for _, e := range scenario.Events() {
		if e.isLinkKind() {
			if !validRouter(e.From, len(b.routers)) || !validRouter(e.To, len(b.routers)) {
				return nil, fmt.Errorf("netsim: event %q references unknown link routers", e.Name)
			}
		} else if !validRouter(e.Router, len(b.routers)) {
			return nil, fmt.Errorf("netsim: event %q references unknown router", e.Name)
		}
		if !e.End.After(e.Start) {
			return nil, fmt.Errorf("netsim: event %q has non-positive duration", e.Name)
		}
	}
	n := &Net{
		routers:   b.routers,
		edges:     b.edges,
		out:       make([][]EdgeID, len(b.routers)),
		in:        make([][]EdgeID, len(b.routers)),
		byAddr:    b.byAddr,
		services:  b.services,
		prefixes:  &b.prefixes,
		scenario:  scenario,
		artifacts: b.artifacts,
	}
	for _, e := range b.edges {
		n.out[e.From] = append(n.out[e.From], e.ID)
		n.in[e.To] = append(n.in[e.To], e.ID)
	}
	// Compile the scenario into dense per-edge and per-router event lists
	// (in event order, which fixes the float summation order): an untouched
	// link or router costs the traceroute engine one nil slice load.
	n.linkEvents = make([][]*Event, len(b.edges))
	n.routerEvents = make([][]*Event, len(b.routers))
	for i := range scenario.events {
		ev := &scenario.events[i]
		if !ev.isLinkKind() {
			n.routerEvents[ev.Router] = append(n.routerEvents[ev.Router], ev)
			continue
		}
		for _, e := range b.edges {
			if ev.matchesDir(e.From, e.To) {
				n.linkEvents[e.ID] = append(n.linkEvents[e.ID], ev)
			}
		}
	}
	if b.artifacts.AliasProb > 0 {
		n.aliases = b.allocAliases()
	}
	if b.artifacts.LyingHopProb > 0 {
		// A lying router replies from a stale interface: a dedicated
		// address that belongs to no live router (think a decommissioned
		// peering interface still configured in the ICMP source
		// selection), drawn from a neighboring AS's prefix so the burst
		// misattributes the hop across an AS boundary. A live neighbor's
		// address would be silently discarded by the analyzers' self-loop
		// filters; a dedicated cross-AS address makes the burst visible as
		// a forged pattern change in the wrong AS, a single-source false
		// positive. Routers in unregistered or exhausted ASes fall back to
		// their own address (the artifact is a no-op there).
		n.staleAddr = b.allocStale()
	}
	return n, nil
}

func validRouter(id RouterID, n int) bool { return id >= 0 && int(id) < n }

// hostAddr returns the i-th host address inside the prefix (1-based).
func hostAddr(p netip.Prefix, i int) (netip.Addr, error) {
	a := p.Addr()
	for k := 0; k < i; k++ {
		a = a.Next()
		if !p.Contains(a) {
			return netip.Addr{}, fmt.Errorf("prefix %v exhausted", p)
		}
	}
	return a, nil
}
