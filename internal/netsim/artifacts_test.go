package netsim

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

// artifactTopology is lineTopology with an artifact config attached before
// Build. art == nil means SetArtifacts is never called, which must be
// indistinguishable from attaching the zero config.
func artifactTopology(t *testing.T, art *Artifacts, scenario *Scenario) (*Net, map[string]RouterID) {
	t.Helper()
	b := NewBuilder()
	b.AS(100, "probe-as", "10.0.100.0/24")
	b.AS(200, "mid-as", "10.0.200.0/24")
	b.AS(300, "dst-as", "10.1.44.0/24")
	ids := map[string]RouterID{}
	ids["P"] = b.Router(100, "P", RouterOpts{ResponseProb: 1})
	ids["A"] = b.Router(200, "A", RouterOpts{ResponseProb: 1})
	ids["B"] = b.Router(200, "B", RouterOpts{ResponseProb: 1})
	ids["C"] = b.Router(300, "C", RouterOpts{ResponseProb: 1})
	ids["D"] = b.Router(200, "D", RouterOpts{ResponseProb: 1})
	b.Link(ids["P"], ids["A"], LinkOpts{DelayMS: 1, loss: 1e-9})
	b.Link(ids["A"], ids["B"], LinkOpts{DelayMS: 2, loss: 1e-9})
	b.Link(ids["B"], ids["C"], LinkOpts{DelayMS: 3, loss: 1e-9})
	b.Link(ids["P"], ids["D"], LinkOpts{DelayMS: 10, loss: 1e-9})
	b.Link(ids["D"], ids["C"], LinkOpts{DelayMS: 10, loss: 1e-9})
	b.Service("10.1.44.200", 300, "", ids["C"])
	if art != nil {
		b.SetArtifacts(*art)
	}
	n, err := b.Build(scenario)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n, ids
}

// diamondTopology builds two equal-cost paths P–A–C and P–D–C so the ECMP
// tie-break actually has a choice to make — the multipath artifact needs a
// second real path to mix in.
func diamondTopology(t *testing.T, art Artifacts) (*Net, map[string]RouterID) {
	t.Helper()
	b := NewBuilder()
	b.AS(100, "probe-as", "10.0.100.0/24")
	b.AS(200, "mid-as", "10.0.200.0/24")
	b.AS(300, "dst-as", "10.1.44.0/24")
	ids := map[string]RouterID{}
	ids["P"] = b.Router(100, "P", RouterOpts{ResponseProb: 1})
	ids["A"] = b.Router(200, "A", RouterOpts{ResponseProb: 1})
	ids["D"] = b.Router(200, "D", RouterOpts{ResponseProb: 1})
	ids["C"] = b.Router(300, "C", RouterOpts{ResponseProb: 1})
	b.Link(ids["P"], ids["A"], LinkOpts{DelayMS: 1, loss: 1e-9})
	b.Link(ids["A"], ids["C"], LinkOpts{DelayMS: 1, loss: 1e-9})
	b.Link(ids["P"], ids["D"], LinkOpts{DelayMS: 1, loss: 1e-9})
	b.Link(ids["D"], ids["C"], LinkOpts{DelayMS: 1, loss: 1e-9})
	b.Service("10.1.44.200", 300, "", ids["C"])
	b.SetArtifacts(art)
	n, err := b.Build(nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n, ids
}

var artDst = netip.MustParseAddr("10.1.44.200")

// TestArtifactFreeByteIdentical is the golden lock at its source: attaching
// the zero Artifacts config must leave every traceroute bit-identical to a
// build that never called SetArtifacts — same replies, same RTTs, because
// zero config means zero extra PRNG draws.
func TestArtifactFreeByteIdentical(t *testing.T) {
	plain, ids := artifactTopology(t, nil, nil)
	zero, _ := artifactTopology(t, &Artifacts{}, nil)
	for hour := 0; hour < 4; hour++ {
		for paris := 0; paris < 4; paris++ {
			at := tAt.Add(time.Duration(hour) * time.Hour)
			seed := uint64(hour*16 + paris)
			r1, err := plain.TracerouteWith(&TracerouteScratch{}, ids["P"], artDst, at, paris, rand.New(rand.NewPCG(seed, 7)), TracerouteOpts{})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := zero.TracerouteWith(&TracerouteScratch{}, ids["P"], artDst, at, paris, rand.New(rand.NewPCG(seed, 7)), TracerouteOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("hour %d paris %d: zero-config result diverges from plain build:\n%+v\nvs\n%+v", hour, paris, r1, r2)
			}
		}
	}
}

func TestArtifactRatesValidated(t *testing.T) {
	for name, art := range map[string]Artifacts{
		"multipath >1": {MultipathProb: 1.5},
		"flip <0":      {RouteFlipProb: -0.1},
		"reorder >1":   {ReorderProb: 2},
		"lying <0":     {LyingHopProb: -1},
		"alias >1":     {AliasProb: 1.01},
	} {
		t.Run(name, func(t *testing.T) {
			b := NewBuilder()
			b.AS(100, "x", "10.0.100.0/24")
			r1 := b.Router(100, "r1", RouterOpts{ResponseProb: 1})
			r2 := b.Router(100, "r2", RouterOpts{ResponseProb: 1})
			b.Link(r1, r2, LinkOpts{DelayMS: 1})
			b.SetArtifacts(art)
			if _, err := b.Build(nil); err == nil {
				t.Errorf("Build accepted artifact config %+v", art)
			}
		})
	}
}

// TestLyingRouterUsesNeighborASStale: during a lying hour the router answers
// from its stale address, which must live in a *neighboring* AS's prefix (so
// the forged responsibility lands across an AS boundary), collide with no
// live interface, and hold for the whole hour; in truthful hours the real
// address comes back.
func TestLyingRouterUsesNeighborASStale(t *testing.T) {
	art := Artifacts{LyingHopProb: 0.5}
	n, ids := artifactTopology(t, &art, nil)
	a := ids["A"]

	var lyingAt, truthfulAt time.Time
	for k := 0; k < 200; k++ {
		at := tAt.Add(time.Duration(k) * time.Hour)
		if art.lyingRouter(a, at) {
			if lyingAt.IsZero() {
				lyingAt = at
			}
		} else if truthfulAt.IsZero() {
			truthfulAt = at
		}
		if !lyingAt.IsZero() && !truthfulAt.IsZero() {
			break
		}
	}
	if lyingAt.IsZero() || truthfulAt.IsZero() {
		t.Fatalf("no lying/truthful hour pair in 200 hours at p=0.5 (hash badly skewed?)")
	}

	stale := n.staleAddr[a]
	real := n.routers[a].Addr
	if stale == real {
		t.Fatalf("stale address for A was not allocated (fell back to real addr %v)", real)
	}
	// A's first cross-AS neighbor by edge creation order is P (AS 100).
	if !netip.MustParsePrefix("10.0.100.0/24").Contains(stale) {
		t.Errorf("stale addr %v not in neighbor AS 100's prefix", stale)
	}
	if _, live := n.byAddr[stale]; live {
		t.Errorf("stale addr %v collides with a live router interface", stale)
	}

	hop1 := func(at time.Time, seed uint64) netip.Addr {
		res, err := n.TracerouteWith(&TracerouteScratch{}, ids["P"], artDst, at, 0, rand.New(rand.NewPCG(seed, 9)), TracerouteOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range res.Hops[0].Replies {
			if !rep.Timeout {
				return rep.From
			}
		}
		t.Fatalf("hop 1 fully unresponsive at %v", at)
		return netip.Addr{}
	}
	if got := hop1(lyingAt, 1); got != stale {
		t.Errorf("lying hour hop 1 = %v, want stale %v", got, stale)
	}
	// The lie holds for the whole hour, not per packet.
	if got := hop1(lyingAt.Add(41*time.Minute), 2); got != stale {
		t.Errorf("lying hour +41m hop 1 = %v, want stale %v", got, stale)
	}
	if got := hop1(truthfulAt, 3); got != real {
		t.Errorf("truthful hour hop 1 = %v, want real %v", got, real)
	}
}

// TestAliasSplitsFlowsStably: an alias-selected router answers a stable
// subset of Paris flows from its alias address — same flow, same address,
// across runs and seeds — and the alias comes from the router's own AS.
func TestAliasSplitsFlowsStably(t *testing.T) {
	art := Artifacts{AliasProb: 1}
	n, ids := artifactTopology(t, &art, nil)
	a := ids["A"]
	real := n.routers[a].Addr
	alias := n.aliases[a]
	if !alias.IsValid() || alias == real {
		t.Fatalf("alias for A not allocated: %v", alias)
	}
	if !netip.MustParsePrefix("10.0.200.0/24").Contains(alias) {
		t.Errorf("alias %v outside A's own AS prefix", alias)
	}

	seen := map[netip.Addr]bool{}
	for paris := 0; paris < 16; paris++ {
		var first netip.Addr
		for run := 0; run < 2; run++ {
			res, err := n.TracerouteWith(&TracerouteScratch{}, ids["P"], artDst, tAt, paris, rand.New(rand.NewPCG(uint64(run*100+paris), 3)), TracerouteOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range res.Hops[0].Replies {
				if rep.Timeout {
					continue
				}
				if rep.From != real && rep.From != alias {
					t.Fatalf("paris %d: hop 1 answered from %v, want real %v or alias %v", paris, rep.From, real, alias)
				}
				if run == 0 && !first.IsValid() {
					first = rep.From
				} else if first.IsValid() && rep.From != first {
					t.Errorf("paris %d: address flapped within a flow (%v then %v)", paris, first, rep.From)
				}
				seen[rep.From] = true
			}
		}
	}
	if !seen[real] || !seen[alias] {
		t.Errorf("16 flows all landed on one address (real=%v alias=%v): split hash degenerate", seen[real], seen[alias])
	}
}

// TestMultipathMixesWithinHop: a multipath-selected flow load-balances per
// packet, so a single TTL's replies mix addresses from two real paths —
// exactly the false-link artifact. Without artifacts a flow's hop never
// shows two routers.
func TestMultipathMixesWithinHop(t *testing.T) {
	n, ids := diamondTopology(t, Artifacts{MultipathProb: 1})
	clean, _ := diamondTopology(t, Artifacts{})
	aAddr, dAddr := n.routers[ids["A"]].Addr, n.routers[ids["D"]].Addr

	mixedHop := func(net *Net, paris int, seed uint64) bool {
		res, err := net.TracerouteWith(&TracerouteScratch{}, ids["P"], artDst, tAt, paris, rand.New(rand.NewPCG(seed, 5)), TracerouteOpts{packetsPerHop: 8})
		if err != nil {
			t.Fatal(err)
		}
		sawA, sawD := false, false
		for _, rep := range res.Hops[0].Replies {
			sawA = sawA || rep.From == aAddr
			sawD = sawD || rep.From == dAddr
		}
		return sawA && sawD
	}

	anyMixed := false
	for paris := 0; paris < 8; paris++ {
		anyMixed = anyMixed || mixedHop(n, paris, uint64(paris))
		if mixedHop(clean, paris, uint64(paris)) {
			t.Fatalf("paris %d: artifact-free flow mixed two routers in one hop", paris)
		}
	}
	if !anyMixed {
		t.Error("MultipathProb=1 never mixed two paths within a hop across 8 flows")
	}
}

// TestReorderSwapsAcrossHopBoundary: reorder coins are drawn after the TTL
// loop, so with the same seed the pre-swap replies equal the artifact-free
// run's — and ReorderProb=1 must swap the last reply of hop i with the
// first of hop i+1.
func TestReorderSwapsAcrossHopBoundary(t *testing.T) {
	base, ids := artifactTopology(t, nil, nil)
	reord, _ := artifactTopology(t, &Artifacts{ReorderProb: 1}, nil)
	rb, err := base.TracerouteWith(&TracerouteScratch{}, ids["P"], artDst, tAt, 0, rand.New(rand.NewPCG(11, 13)), TracerouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := reord.TracerouteWith(&TracerouteScratch{}, ids["P"], artDst, tAt, 0, rand.New(rand.NewPCG(11, 13)), TracerouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.Validate(); err != nil {
		t.Fatalf("reordered result invalid: %v", err)
	}
	if len(rb.Hops) < 2 || len(rr.Hops) != len(rb.Hops) {
		t.Fatalf("hop counts diverge: %d vs %d", len(rb.Hops), len(rr.Hops))
	}
	b0 := rb.Hops[0].Replies
	b1 := rb.Hops[1].Replies
	r0 := rr.Hops[0].Replies
	r1 := rr.Hops[1].Replies
	if !reflect.DeepEqual(r0[len(r0)-1], b1[0]) {
		t.Errorf("hop 1 last reply = %+v, want hop 2's first %+v", r0[len(r0)-1], b1[0])
	}
	if !reflect.DeepEqual(r1[0], b0[len(b0)-1]) {
		t.Errorf("hop 2 first reply = %+v, want hop 1's last %+v", r1[0], b0[len(b0)-1])
	}
}

// TestRouteFlipStraddlesEpoch: a flip-selected trace paces its TTLs 30 s
// apart; when a route-affecting boundary falls inside the trace, later hops
// probe the new (shorter) route and the trace becomes internally
// inconsistent — here the new path is too short for TTL 3, which times out
// where the artifact-free run saw the destination.
func TestRouteFlipStraddlesEpoch(t *testing.T) {
	// From +60 s, make the P–A edge unusable: the best path flips to the
	// 2-hop detour P–D–C right as TTL 3 fires.
	sc := NewScenario(Event{
		Name: "flip", Kind: EventReroute, From: 0, To: 1, WeightFactor: 1e6, Both: true,
		Start: tAt.Add(60 * time.Second), End: tAt.Add(time.Hour),
	})
	base, ids := artifactTopology(t, nil, sc)
	flip, _ := artifactTopology(t, &Artifacts{RouteFlipProb: 1}, sc)

	rb, err := base.TracerouteWith(&TracerouteScratch{}, ids["P"], artDst, tAt, 0, rand.New(rand.NewPCG(21, 2)), TracerouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := flip.TracerouteWith(&TracerouteScratch{}, ids["P"], artDst, tAt, 0, rand.New(rand.NewPCG(21, 2)), TracerouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.Validate(); err != nil {
		t.Fatalf("flipped result invalid: %v", err)
	}
	if len(rb.Hops) != 3 || len(rf.Hops) != 3 {
		t.Fatalf("hop counts: base %d, flipped %d, want 3 (loop control keys on the base path)", len(rb.Hops), len(rf.Hops))
	}
	if rb.Hops[2].Unresponsive() {
		t.Fatal("artifact-free TTL 3 should reach the destination")
	}
	// TTL 1 fires before the boundary: still the old path's first hop.
	for _, rep := range rf.Hops[0].Replies {
		if !rep.Timeout && rep.From != base.routers[ids["A"]].Addr {
			t.Errorf("flipped TTL 1 = %v, want old-path hop A %v", rep.From, base.routers[ids["A"]].Addr)
		}
	}
	// TTL 3 fires at +60 s on the recomputed 2-hop path: nothing lives there.
	if !rf.Hops[2].Unresponsive() {
		t.Errorf("flipped TTL 3 got replies %+v, want timeouts on the shortened post-flip path", rf.Hops[2].Replies)
	}
}

// TestArtifactsDeterministicGivenSeed: with every artifact enabled the full
// result — addresses, RTTs, timeouts — is a pure function of the seed.
func TestArtifactsDeterministicGivenSeed(t *testing.T) {
	art := Artifacts{MultipathProb: 0.5, RouteFlipProb: 0.5, ReorderProb: 0.5, LyingHopProb: 0.5, AliasProb: 0.5}
	n, ids := artifactTopology(t, &art, nil)
	for paris := 0; paris < 4; paris++ {
		at := tAt.Add(time.Duration(paris) * time.Hour)
		r1, err := n.TracerouteWith(&TracerouteScratch{}, ids["P"], artDst, at, paris, rand.New(rand.NewPCG(77, uint64(paris))), TracerouteOpts{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := n.TracerouteWith(&TracerouteScratch{}, ids["P"], artDst, at, paris, rand.New(rand.NewPCG(77, uint64(paris))), TracerouteOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("paris %d: same seed, different results", paris)
		}
		if err := r1.Validate(); err != nil {
			t.Fatalf("paris %d: invalid result: %v", paris, err)
		}
	}
}

// FuzzArtifactTraceroute fuzzes the artifact rate space: any in-range config
// must produce well-formed, seed-deterministic traceroutes; any out-of-range
// rate must be rejected at Build.
func FuzzArtifactTraceroute(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, uint64(1), 0)
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0, uint64(42), 7)
	f.Add(0.2, 0.1, 0.03, 0.04, 0.3, uint64(9), 3)
	f.Add(0.5, 0.0, 1.0, 0.5, 0.0, uint64(1234), 15)
	f.Fuzz(func(t *testing.T, mp, rf, ro, ly, al float64, seed uint64, paris int) {
		for _, v := range []float64{mp, rf, ro, ly, al} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		art := Artifacts{MultipathProb: mp, RouteFlipProb: rf, ReorderProb: ro, LyingHopProb: ly, AliasProb: al}
		b := NewBuilder()
		b.AS(100, "probe-as", "10.0.100.0/24")
		b.AS(200, "mid-as", "10.0.200.0/24")
		b.AS(300, "dst-as", "10.1.44.0/24")
		p := b.Router(100, "P", RouterOpts{ResponseProb: 1})
		a := b.Router(200, "A", RouterOpts{ResponseProb: 1})
		bb := b.Router(200, "B", RouterOpts{ResponseProb: 1})
		c := b.Router(300, "C", RouterOpts{ResponseProb: 1})
		d := b.Router(200, "D", RouterOpts{ResponseProb: 1})
		b.Link(p, a, LinkOpts{DelayMS: 1})
		b.Link(a, bb, LinkOpts{DelayMS: 2})
		b.Link(bb, c, LinkOpts{DelayMS: 3})
		b.Link(p, d, LinkOpts{DelayMS: 10})
		b.Link(d, c, LinkOpts{DelayMS: 10})
		b.Service("10.1.44.200", 300, "", c)
		b.SetArtifacts(art)
		n, err := b.Build(nil)
		inRange := art.validate() == nil
		if !inRange {
			if err == nil {
				t.Fatalf("Build accepted out-of-range config %+v", art)
			}
			return
		}
		if err != nil {
			t.Fatalf("Build rejected in-range config %+v: %v", art, err)
		}
		if paris < 0 {
			paris = -paris
		}
		for hour := 0; hour < 2; hour++ {
			at := tAt.Add(time.Duration(hour) * time.Hour)
			r1, err := n.TracerouteWith(&TracerouteScratch{}, p, artDst, at, paris%64, rand.New(rand.NewPCG(seed, uint64(hour))), TracerouteOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := r1.Validate(); err != nil {
				t.Fatalf("invalid result under %+v: %v", art, err)
			}
			r2, err := n.TracerouteWith(&TracerouteScratch{}, p, artDst, at, paris%64, rand.New(rand.NewPCG(seed, uint64(hour))), TracerouteOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("nondeterministic result under %+v", art)
			}
		}
	})
}
