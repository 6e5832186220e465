package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"pinpoint/internal/hash"
)

// Artifacts configures the measurement-artifact injection layer: the
// traceroute pathologies Viger et al. catalog for real Atlas data, injected
// inside TracerouteInto so detector robustness can be measured against
// hostile input. The zero value disables every artifact and — by contract —
// makes zero extra PRNG draws, so artifact-free runs are byte-identical to
// builds that never heard of this struct (the golden-test lock).
//
// Determinism: artifact decisions come from two deterministic sources only.
// Per-flow and per-(router, hour) decisions use hash.Fold over stable
// identifiers (no PRNG draw, so enabling one artifact cannot shift the draw
// sequence of another); per-packet and per-trace coin flips use the
// traceroute's own rng, which the platform reseeds per (measurement, probe,
// time) task — so artifact-laden runs stay bit-identical for any worker
// count. Draw order inside one traceroute is fixed: the route-flip coin (one
// Float64, iff RouteFlipProb > 0), then per packet the multipath coin (one
// Uint64, iff the flow is multipath-selected) followed by the unchanged
// probeHop draws, then after the TTL loop one reorder coin per adjacent hop
// boundary (iff ReorderProb > 0).
type Artifacts struct {
	// MultipathProb selects flows (per (probe, dst, parisID), by hash)
	// whose packets are load-balanced per packet across two equal-cost-ish
	// paths, as if a router on the path ignored the Paris flow identifier.
	// Replies for one TTL then mix addresses from two real paths, creating
	// false adjacent pairs / false links.
	MultipathProb float64

	// RouteFlipProb selects traces (per trace, by rng) that execute slowly
	// enough to straddle route changes: each TTL is probed
	// RouteFlipHopStall later than the previous one, and when a
	// route-affecting epoch boundary crosses the trace the forward path is
	// recomputed mid-trace — the classic inconsistent-traceroute artifact.
	RouteFlipProb float64

	// ReorderProb swaps, per adjacent hop boundary (by rng), one reply of
	// hop i with one reply of hop i+1 — response reordering attributing a
	// reply to the wrong TTL, another false-link source.
	ReorderProb float64

	// LyingHopProb selects (router, hour) pairs (by hash) during which the
	// router answers from a stale interface: a dedicated address that
	// belongs to no live router, allocated at Build from a neighboring
	// AS's prefix (an old peering allocation) so the hop is misattributed
	// across an AS boundary. Bursty by construction — one lying router
	// pollutes a whole analysis bin from a single source, a false
	// positive the robustness grid's lying and storm mixes count.
	LyingHopProb float64

	// AliasProb selects routers (by hash) that answer from a second
	// interface address for half of all flows (per (router, parisID), by
	// hash). The alias address is allocated from the router's AS prefix at
	// Build time; one physical router then shows up as two IPs, splitting
	// its links' sample populations.
	AliasProb float64
}

// RouteFlipHopStall is the per-TTL pacing of a route-flip-selected "slow"
// traceroute: hop i is probed (i-1)·stall after the trace start, so a trace
// of 15 hops spans ~7 minutes and can straddle an epoch boundary.
const RouteFlipHopStall = 30 * time.Second

// Enabled reports whether any artifact is switched on.
func (a Artifacts) Enabled() bool {
	return a.MultipathProb > 0 || a.RouteFlipProb > 0 || a.ReorderProb > 0 ||
		a.LyingHopProb > 0 || a.AliasProb > 0
}

// validate checks every rate is a probability.
func (a Artifacts) validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("netsim: artifact rate %s = %v outside [0, 1]", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MultipathProb", a.MultipathProb},
		{"RouteFlipProb", a.RouteFlipProb},
		{"ReorderProb", a.ReorderProb},
		{"LyingHopProb", a.LyingHopProb},
		{"AliasProb", a.AliasProb},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// Hash salts: distinct per decision family so enabling one artifact never
// changes another's selections.
const (
	artSaltMultipath = 0xa17f_0001
	artSaltLying     = 0xa17f_0002
	artSaltAlias     = 0xa17f_0003
	artSaltAliasFlow = 0xa17f_0004
)

// hashFloat maps a 64-bit hash to [0, 1). hash.Fold ends on a multiply,
// which leaves its output badly clustered for small sequential inputs
// (router ids, hour counters) — comparing it against a probability would
// skew every artifact rate. A final avalanche (murmur3 fmix64) restores a
// uniform distribution without touching the shared primitive that golden
// outputs depend on.
func hashFloat(h uint64) float64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return float64(h>>11) / (1 << 53)
}

// addrHash folds an address into a stable 64-bit value.
func addrHash(a netip.Addr) uint64 {
	b := a.As16()
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[i+8])
	}
	return hash.Fold(0x5ca1ab1e, hi, lo)
}

// multipathFlow reports whether the (probe, dst, parisID) flow is selected
// for per-packet load balancing.
func (a Artifacts) multipathFlow(probe RouterID, dst netip.Addr, parisID int) bool {
	if a.MultipathProb <= 0 {
		return false
	}
	h := hash.Fold(artSaltMultipath, uint64(probe), addrHash(dst), uint64(parisID))
	return hashFloat(h) < a.MultipathProb
}

// lyingRouter reports whether the router lies about its address during the
// hour containing t.
func (a Artifacts) lyingRouter(r RouterID, t time.Time) bool {
	if a.LyingHopProb <= 0 {
		return false
	}
	h := hash.Fold(artSaltLying, uint64(r), uint64(t.Unix()/3600))
	return hashFloat(h) < a.LyingHopProb
}

// aliasedReply reports whether the router answers this flow from its alias
// address: the router must be alias-selected, and the (router, parisID)
// flow hash picks the alias for roughly half of all flows.
func (a Artifacts) aliasedReply(r RouterID, parisID int) bool {
	if a.AliasProb <= 0 {
		return false
	}
	if hashFloat(hash.Fold(artSaltAlias, uint64(r))) >= a.AliasProb {
		return false
	}
	// Route the parity decision through the avalanche too: the raw Fold
	// low bit is just the seed's parity for odd multipliers.
	return hashFloat(hash.Fold(artSaltAliasFlow, uint64(r), uint64(parisID))) < 0.5
}
