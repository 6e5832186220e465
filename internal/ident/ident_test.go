package ident

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"sync"
	"testing"

	"pinpoint/internal/trace"
)

func addr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
}

func TestZeroAddrReserved(t *testing.T) {
	g := NewRegistry()
	if got := g.Addr(netip.Addr{}); got != ZeroAddr {
		t.Fatalf("zero addr interned to %d, want %d", got, ZeroAddr)
	}
	if got := g.AddrOf(ZeroAddr); got != (netip.Addr{}) {
		t.Fatalf("AddrOf(ZeroAddr) = %v, want zero addr", got)
	}
	if g.Addrs() != 1 {
		t.Fatalf("fresh registry Addrs() = %d, want 1 (the reserved zero)", g.Addrs())
	}
}

func TestInternRoundTrips(t *testing.T) {
	g := NewRegistry()
	a, b := addr(1), addr(2)
	ida, idb := g.Addr(a), g.Addr(b)
	if ida == idb {
		t.Fatal("distinct addresses got the same ID")
	}
	if g.Addr(a) != ida || g.Addr(b) != idb {
		t.Fatal("re-interning changed the ID")
	}
	if g.AddrOf(ida) != a || g.AddrOf(idb) != b {
		t.Fatal("AddrOf does not round-trip")
	}

	lid := g.Link(ida, idb)
	if got := g.Link(ida, idb); got != lid {
		t.Fatal("re-interning link changed the ID")
	}
	if rid := g.Link(idb, ida); rid == lid {
		t.Fatal("reversed link shares the ID of the forward link")
	}
	if key := g.LinkKeyOf(lid); key != (trace.LinkKey{Near: a, Far: b}) {
		t.Fatalf("LinkKeyOf = %v", key)
	}

	fid := g.Flow(ida, idb)
	if ra, da := g.FlowAddrsOf(fid); ra != a || da != b {
		t.Fatalf("FlowAddrsOf = (%v, %v)", ra, da)
	}
	if g.Flow(ida, idb) != fid {
		t.Fatal("re-interning flow changed the ID")
	}

	rid := g.Router(ida)
	if g.Router(ida) != rid {
		t.Fatal("re-interning router changed the ID")
	}

	if g.Addrs() != 3 || g.Links() != 2 || g.Flows() != 1 || g.Routers() != 1 {
		t.Fatalf("counts = %d/%d/%d/%d", g.Addrs(), g.Links(), g.Flows(), g.Routers())
	}
}

func TestLookupAddrDoesNotIntern(t *testing.T) {
	g := NewRegistry()
	if _, ok := g.LookupAddr(addr(7)); ok {
		t.Fatal("LookupAddr hit an address never interned")
	}
	if g.Addrs() != 1 {
		t.Fatal("LookupAddr interned as a side effect")
	}
	id := g.Addr(addr(7))
	if got, ok := g.LookupAddr(addr(7)); !ok || got != id {
		t.Fatalf("LookupAddr after intern = %d, %v", got, ok)
	}
}

// TestConcurrentInterningStableIDs hammers one registry from many
// goroutines interning overlapping entity sets, then asserts every
// goroutine observed the same ID for the same entity and that reverse
// lookup agrees. Run under -race this also proves the synchronization.
func TestConcurrentInterningStableIDs(t *testing.T) {
	g := NewRegistry()
	const workers = 8
	const n = 500

	type view struct {
		addrs   [n]AddrID
		links   [n]LinkID
		flows   [n]FlowID
		routers [n]RouterID
	}
	views := make([]view, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := &views[w]
			// Interleave orders per worker so insertion races are real.
			for i := 0; i < n; i++ {
				k := (i*7 + w*13) % n
				a := g.Addr(addr(k))
				b := g.Addr(addr(k + n))
				v.addrs[k] = a
				v.links[k] = g.Link(a, b)
				v.flows[k] = g.Flow(a, b)
				v.routers[k] = g.Router(a)
				// Concurrent readers must always see consistent state.
				if g.AddrOf(a) != addr(k) {
					t.Errorf("worker %d: AddrOf mismatch for %v", w, addr(k))
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		if views[w] != views[0] {
			t.Fatalf("worker %d observed different IDs than worker 0", w)
		}
	}
	for i := 0; i < n; i++ {
		if g.AddrOf(views[0].addrs[i]) != addr(i) {
			t.Fatalf("reverse lookup of addr %d does not round-trip", i)
		}
		if key := g.LinkKeyOf(views[0].links[i]); key != (trace.LinkKey{Near: addr(i), Far: addr(i + n)}) {
			t.Fatalf("reverse lookup of link %d does not round-trip", i)
		}
		if r, d := g.FlowAddrsOf(views[0].flows[i]); r != addr(i) || d != addr(i+n) {
			t.Fatalf("reverse lookup of flow %d does not round-trip", i)
		}
	}
	if g.Addrs() != 2*n+1 || g.Links() != n || g.Flows() != n || g.Routers() != n {
		t.Fatalf("counts = %d/%d/%d/%d", g.Addrs(), g.Links(), g.Flows(), g.Routers())
	}
}

// TestInternerMatchesRegistry: the single-owner memo must hand out exactly
// the registry's IDs, including entities another interner created first.
func TestInternerMatchesRegistry(t *testing.T) {
	g := NewRegistry()
	in1 := NewInterner(g)
	in2 := NewInterner(g)
	if in1.Registry() != g {
		t.Fatal("Registry() does not return the shared registry")
	}
	for i := 0; i < 100; i++ {
		a, b := addr(i), addr(i+100)
		ida := in1.Addr(a)
		if in2.Addr(a) != ida || g.Addr(a) != ida {
			t.Fatalf("interners disagree on addr %d", i)
		}
		idb := in2.Addr(b)
		if in1.Link(ida, idb) != in2.Link(ida, idb) {
			t.Fatalf("interners disagree on link %d", i)
		}
		if in1.Flow(ida, idb) != in2.Flow(ida, idb) {
			t.Fatalf("interners disagree on flow %d", i)
		}
		if in1.Router(ida) != in2.Router(ida) {
			t.Fatalf("interners disagree on router %d", i)
		}
	}
	// Memo hits must not re-consult the registry's counts.
	if g.Addrs() != 201 {
		t.Fatalf("Addrs = %d, want 201", g.Addrs())
	}
}

// TestInternerTablesMatchRegistry drives 200k seeded pairs through two
// Interners over one Registry, twice — misses, then hits — and holds every
// Link, Flow and AddrV4 id to the registry's. The pairs mix ZeroAddr, ids
// near 2³²−1, keys that share their low 32 bits or differ only in their
// top bits, and dense small ids; the tables grow through more than ten
// doublings on the way.
func TestInternerTablesMatchRegistry(t *testing.T) {
	g := NewRegistry()
	ins := [2]*Interner{NewInterner(g), NewInterner(g)}
	rng := rand.New(rand.NewPCG(26, 1))
	id := func() AddrID {
		switch rng.IntN(5) {
		case 0:
			return ZeroAddr
		case 1:
			return ^AddrID(0) - AddrID(rng.IntN(4))
		case 2:
			return AddrID(rng.IntN(16)) << 28
		case 3:
			return AddrID(rng.Uint32())
		}
		return AddrID(rng.IntN(1 << 12))
	}
	const n = 200_000
	type pair struct{ a, b AddrID }
	pairs := make([]pair, n)
	for i := range pairs {
		pairs[i] = pair{id(), id()}
		if i%7 == 0 { // the low 32 bits of the previous key, new high bits
			pairs[i].b = pairs[max(i-1, 0)].b
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i, p := range pairs {
			in := ins[(i+pass)%2]
			if got, want := in.Link(p.a, p.b), g.Link(p.a, p.b); got != want {
				t.Fatalf("pass %d: Link(%d, %d) = %d, registry says %d", pass, p.a, p.b, got, want)
			}
			if got, want := in.Flow(p.b, p.a), g.Flow(p.b, p.a); got != want {
				t.Fatalf("pass %d: Flow(%d, %d) = %d, registry says %d", pass, p.b, p.a, got, want)
			}
			v := uint32(p.a ^ p.b)
			if got, want := in.AddrV4(v), g.Addr(netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})); got != uint32(want) {
				t.Fatalf("pass %d: AddrV4(%#x) = %d, registry says %d", pass, v, got, want)
			}
		}
	}
	for _, in := range ins {
		for _, tab := range []*pairTable{&in.v4, &in.links, &in.flows} {
			if len(tab.slots) < 1<<(pairTableBits+10) {
				t.Errorf("a table ended at %d slots: fewer than ten doublings", len(tab.slots))
			}
		}
	}
}

// TestInternerHitsAllocationFree pins warm Link, Flow and AddrV4 hits —
// table hits, not memo hits — at zero allocations.
func TestInternerHitsAllocationFree(t *testing.T) {
	in := NewInterner(NewRegistry())
	const n = 1000
	for i := 0; i < n; i++ {
		in.Link(AddrID(i), AddrID(i+1))
		in.Flow(AddrID(i), AddrID(i+1))
		in.AddrV4(uint32(i))
	}
	i := 0
	for name, hit := range map[string]func(){
		"Link":   func() { in.Link(AddrID(i), AddrID(i+1)) },
		"Flow":   func() { in.Flow(AddrID(i), AddrID(i+1)) },
		"AddrV4": func() { in.AddrV4(uint32(i)) },
	} {
		if a := testing.AllocsPerRun(n, func() { i = (i + 1) % n; hit() }); a != 0 {
			t.Errorf("warm %s hit allocates %v times, want 0", name, a)
		}
	}
}

// BenchmarkInternerPairs is the replay hot path's interning half: warm
// Link and Flow table hits over about as many entries as the replay
// fixture holds (1 055 links, 3 790 flows), each op one of each.
func BenchmarkInternerPairs(b *testing.B) {
	in := NewInterner(NewRegistry())
	rng := rand.New(rand.NewPCG(1, 2))
	links := make([][2]AddrID, 1055)
	flows := make([][2]AddrID, 3790)
	for _, ps := range [][][2]AddrID{links, flows} {
		for i := range ps {
			ps[i] = [2]AddrID{AddrID(rng.IntN(2000)), AddrID(rng.IntN(2000))}
		}
	}
	for _, p := range links {
		in.Link(p[0], p[1])
	}
	for _, p := range flows {
		in.Flow(p[0], p[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, f := links[i%len(links)], flows[i%len(flows)]
		in.Link(l[0], l[1])
		in.Flow(f[0], f[1])
	}
}

func BenchmarkInternHit(b *testing.B) {
	g := NewRegistry()
	a := addr(1)
	g.Addr(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Addr(a)
	}
}

func BenchmarkInternerHit(b *testing.B) {
	g := NewRegistry()
	in := NewInterner(g)
	a := addr(1)
	in.Addr(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Addr(a)
	}
}

func BenchmarkInternMiss(b *testing.B) {
	g := NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Addr(addr(i))
	}
}

func ExampleRegistry() {
	g := NewRegistry()
	near := g.Addr(netip.MustParseAddr("192.0.2.1"))
	far := g.Addr(netip.MustParseAddr("192.0.2.2"))
	link := g.Link(near, far)
	fmt.Println(g.LinkKeyOf(link))
	// Output: 192.0.2.1>192.0.2.2
}
