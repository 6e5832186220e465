package netsim

import (
	"math/rand/v2"
	"testing"
	"time"
)

func TestGenerateIPv6Topology(t *testing.T) {
	topo, err := Generate(TopoConfig{Seed: 66, IPv6: true, Tier1: 2, Transit: 4, Stub: 8,
		Roots: 1, RootInstances: 3, Anchors: 2, IXPs: 1, IXPMembers: 3})
	if err != nil {
		t.Fatal(err)
	}
	n, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every router interface and every service address is IPv6.
	for i := 0; i < len(n.routers); i++ {
		if !n.Router(RouterID(i)).Addr.Is6() {
			t.Fatalf("router %d has non-IPv6 address %v", i, n.Router(RouterID(i)).Addr)
		}
	}
	for _, svc := range n.Services() {
		if !svc.Is6() {
			t.Fatalf("service %v is not IPv6", svc)
		}
	}
	// LPM resolves IPv6 interfaces, including IXP LAN interfaces to the
	// IXP ASN.
	for _, ixp := range topo.IXPs {
		for _, iface := range ixp.Ifaces {
			asn, ok := n.Prefixes().Lookup(n.Router(iface).Addr)
			if !ok || asn != ixp.ASN {
				t.Errorf("IPv6 IXP iface %v → %v/%v, want %v", n.Router(iface).Addr, asn, ok, ixp.ASN)
			}
		}
	}
}

// The full detection stack is address-family agnostic: a congestion on an
// IPv6 link is detected exactly like an IPv4 one.
func TestIPv6TracerouteAndAddresses(t *testing.T) {
	topo, err := Generate(TopoConfig{Seed: 67, IPv6: true, Tier1: 2, Transit: 4, Stub: 8,
		Roots: 1, RootInstances: 2, Anchors: 2, IXPs: 1, IXPMembers: 3})
	if err != nil {
		t.Fatal(err)
	}
	n, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewPCG(1, 1))
	hits := 0
	for _, probe := range topo.ProbeSites() {
		res, err := n.TracerouteWith(&TracerouteScratch{}, probe, topo.Roots[0].Addr, at, 0, rng, TracerouteOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		if reached(res) {
			hits++
		}
		for _, h := range res.Hops {
			for _, a := range responders(h) {
				if !a.Is6() {
					t.Fatalf("IPv4 responder %v in IPv6 topology", a)
				}
			}
		}
	}
	if hits < len(topo.ProbeSites())/2 {
		t.Errorf("only %d/%d probes reached the v6 root", hits, len(topo.ProbeSites()))
	}
}
