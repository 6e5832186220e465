package ident

import (
	"math/rand/v2"
	"net/netip"
	"slices"
	"sync"
	"testing"
)

// orderPool returns n addresses of one family mix: "v4", "v6", or "mixed",
// which adds the zero address and v4-mapped IPv6 addresses to both.
func orderPool(rng *rand.Rand, family string, n int) []netip.Addr {
	var pool []netip.Addr
	for len(pool) < n {
		var a netip.Addr
		switch k := rng.IntN(4); {
		case family == "v4" || family == "mixed" && k == 0:
			a = netip.AddrFrom4([4]byte{10, 0, byte(rng.IntN(4)), byte(rng.IntN(256))})
		case family == "v6" || k == 1:
			a = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 12: byte(rng.IntN(4)), 15: byte(rng.IntN(256))})
		case k == 2:
			a = netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: 10, 15: byte(rng.IntN(256))})
		}
		if !slices.Contains(pool, a) {
			pool = append(pool, a)
		}
	}
	return pool
}

// cmpAddrPairs is the close order SortLinks and SortFlows must give, over
// resolved addresses.
func cmpAddrPairs(a1, b1, a2, b2 netip.Addr) int {
	if c := a1.Compare(a2); c != 0 {
		return c
	}
	return b1.Compare(b2)
}

// TestSortPairsMatchesAddrCompare holds SortLinks and SortFlows to a
// comparison sort over the pairs they resolve to, with netip.Addr.Compare on
// the first address and then the second, in each family and across both.
// The pool is small, so many pairs tie on their first address.
func TestSortPairsMatchesAddrCompare(t *testing.T) {
	for _, family := range []string{"v4", "v6", "mixed"} {
		t.Run(family, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, uint64(len(family))))
			pool := orderPool(rng, family, 12)
			g := NewRegistry()
			var links []LinkID
			var flows []FlowID
			for range 300 {
				a, b := g.Addr(pool[rng.IntN(len(pool))]), g.Addr(pool[rng.IntN(len(pool))])
				links = append(links, g.Link(a, b))
				flows = append(flows, g.Flow(b, a))
			}
			rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })

			want := slices.Clone(links)
			slices.SortFunc(want, func(x, y LinkID) int {
				kx, ky := g.LinkKeyOf(x), g.LinkKeyOf(y)
				return cmpAddrPairs(kx.Near, kx.Far, ky.Near, ky.Far)
			})
			g.SortLinks(links)
			if !slices.Equal(links, want) {
				t.Errorf("SortLinks = %v, want %v", links, want)
			}
			ties := 0
			for i := 1; i < len(links); i++ {
				if links[i] != links[i-1] && g.LinkKeyOf(links[i]).Near == g.LinkKeyOf(links[i-1]).Near {
					ties++
				}
			}
			if ties == 0 {
				t.Error("no two distinct links tie on their near address")
			}

			want2 := slices.Clone(flows)
			slices.SortFunc(want2, func(x, y FlowID) int {
				rx, dx := g.FlowAddrsOf(x)
				ry, dy := g.FlowAddrsOf(y)
				return cmpAddrPairs(rx, dx, ry, dy)
			})
			g.SortFlows(flows)
			if !slices.Equal(flows, want2) {
				t.Errorf("SortFlows = %v, want %v", flows, want2)
			}
		})
	}
}

// TestSortFlowsWhileInterning sorts flows from two goroutines while a third
// interns new addresses and flows, growing the tables the sorts read.
func TestSortFlowsWhileInterning(t *testing.T) {
	g := NewRegistry()
	rng := rand.New(rand.NewPCG(9, 9))
	pool := orderPool(rng, "mixed", 32)
	var ids []FlowID
	for range 200 {
		ids = append(ids, g.Flow(g.Addr(pool[rng.IntN(len(pool))]), g.Addr(pool[rng.IntN(len(pool))])))
	}
	slices.Sort(ids)
	ids = slices.Compact(ids) // distinct flows: the sorted order is strict
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := range 2000 {
			a := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 1, 14: byte(i >> 8), 15: byte(i)})
			g.Flow(g.Addr(a), g.Addr(pool[i%len(pool)]))
		}
	}()
	for w := range 2 {
		go func() {
			defer wg.Done()
			own := slices.Clone(ids)
			r := rand.New(rand.NewPCG(uint64(w), 1))
			for range 50 {
				r.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
				g.SortFlows(own)
				for i := 1; i < len(own); i++ {
					ra, da := g.FlowAddrsOf(own[i-1])
					rb, db := g.FlowAddrsOf(own[i])
					if cmpAddrPairs(ra, da, rb, db) >= 0 {
						t.Errorf("flows %d and %d out of order: (%v, %v) before (%v, %v)", own[i-1], own[i], ra, da, rb, db)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
