package netsim

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"
)

func TestGenerateDefaultTopology(t *testing.T) {
	topo, err := Generate(TopoConfig{Seed: 42})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	n, err := topo.Build(nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(topo.Tier1) != 4 || len(topo.Transit) != 10 || len(topo.Stub) != 30 {
		t.Errorf("AS counts: %d/%d/%d", len(topo.Tier1), len(topo.Transit), len(topo.Stub))
	}
	if len(topo.Roots) != 3 || len(topo.Anchors) != 10 || len(topo.IXPs) != 1 {
		t.Errorf("services: %d roots, %d anchors, %d ixps", len(topo.Roots), len(topo.Anchors), len(topo.IXPs))
	}
	if len(n.routers) < 80 {
		t.Errorf("router count = %d, want ≥ 80", len(n.routers))
	}
	if len(topo.ProbeSites()) != 30 {
		t.Errorf("probe sites = %d", len(topo.ProbeSites()))
	}
	if len(topo.Targets()) != 13 {
		t.Errorf("targets = %d, want 3 roots + 10 anchors", len(topo.Targets()))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t1, err := Generate(TopoConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Generate(TopoConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := t1.Build(nil)
	n2, _ := t2.Build(nil)
	if len(n1.routers) != len(n2.routers) || len(n1.edges) != len(n2.edges) {
		t.Fatal("same seed produced different topologies")
	}
	for i := 0; i < len(n1.routers); i++ {
		a, b := n1.Router(RouterID(i)), n2.Router(RouterID(i))
		if a.Addr != b.Addr || a.AS != b.AS || a.Name != b.Name {
			t.Fatalf("router %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratedTopologyFullyConnected(t *testing.T) {
	topo, err := Generate(TopoConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	n, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every probe site must reach every target.
	at := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	for _, probe := range topo.ProbeSites() {
		for _, dst := range topo.Targets() {
			if _, ok := n.ForwardPath(probe, dst, at, 0); !ok {
				t.Fatalf("probe %v cannot reach %v", n.Router(probe).Name, dst)
			}
		}
	}
}

func TestGeneratedPrefixesResolve(t *testing.T) {
	topo, err := Generate(TopoConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every router interface address must map to some AS; IXP interfaces
	// must map to the IXP ASN despite belonging to member ASes.
	for i := 0; i < len(n.routers); i++ {
		r := n.Router(RouterID(i))
		if _, ok := n.Prefixes().Lookup(r.Addr); !ok {
			t.Errorf("router %s addr %v has no AS mapping", r.Name, r.Addr)
		}
	}
	for _, ixp := range topo.IXPs {
		for _, iface := range ixp.Ifaces {
			asn, ok := n.Prefixes().Lookup(n.Router(iface).Addr)
			if !ok || asn != ixp.ASN {
				t.Errorf("IXP iface %v maps to %v, want %v", n.Router(iface).Addr, asn, ixp.ASN)
			}
		}
	}
	// Root service addresses map to the operator AS.
	for _, root := range topo.Roots {
		asn, ok := n.Prefixes().Lookup(root.Addr)
		if !ok || asn != root.ASN {
			t.Errorf("root %v maps to %v, want %v", root.Addr, asn, root.ASN)
		}
	}
}

// Return-path asymmetry is the paper's founding observation: most forward
// paths differ from the corresponding return path.
func TestPathAsymmetryIsCommon(t *testing.T) {
	topo, err := Generate(TopoConfig{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	n, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	asym, total := 0, 0
	// Anchors (unicast, stub-hosted) exercise long inter-domain paths;
	// anycast roots are intentionally close by and often symmetric.
	for _, probe := range topo.ProbeSites() {
		for _, dst := range topo.Targets()[3:] {
			fwd, ok := n.ForwardPath(probe, dst, at, 0)
			if !ok || len(fwd) < 3 {
				continue
			}
			last := fwd[len(fwd)-1]
			ret, ok := n.ReturnPath(last, probe, at)
			if !ok {
				continue
			}
			total++
			if !samePathReversed(fwd, ret) {
				asym++
			}
		}
	}
	if total == 0 {
		t.Fatal("no paths sampled")
	}
	frac := float64(asym) / float64(total)
	if frac < 0.5 {
		t.Errorf("asymmetric fraction = %.2f, want ≥ 0.5 (paper cites ~90%% at AS level)", frac)
	}
}

func samePathReversed(fwd, ret []RouterID) bool {
	if len(fwd) != len(ret) {
		return false
	}
	for i := range fwd {
		if fwd[i] != ret[len(ret)-1-i] {
			return false
		}
	}
	return true
}

// Traceroutes over the generated topology should mostly succeed and produce
// parsable hops; this is the smoke test the measurement platform relies on.
func TestGeneratedTraceroutes(t *testing.T) {
	topo, err := Generate(TopoConfig{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	n, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewPCG(1, 2))
	hits := 0
	total := 0
	for _, probe := range topo.ProbeSites() {
		for ti, dst := range topo.Targets() {
			res, err := n.TracerouteWith(&TracerouteScratch{}, probe, dst, at, ti, rng, TracerouteOpts{})
			if err != nil {
				t.Fatalf("traceroute: %v", err)
			}
			if err := res.Validate(); err != nil {
				t.Fatalf("invalid result: %v", err)
			}
			total++
			if reached(res) {
				hits++
			}
		}
	}
	if frac := float64(hits) / float64(total); frac < 0.9 {
		t.Errorf("reach fraction = %.2f, want ≥ 0.9", frac)
	}
}

func TestLanAddr(t *testing.T) {
	a := lanAddr("80.81.192.0/24", 1)
	if a != "80.81.192.1" {
		t.Errorf("lanAddr(1) = %s", a)
	}
	if lanAddr("80.81.192.0/24", 251) != lanAddr("80.81.192.0/24", 1) {
		t.Error("host wraps modulo 250")
	}
	if _, err := netip.ParseAddr(lanAddr("80.81.192.0/24", 99)); err != nil {
		t.Error(err)
	}
}
