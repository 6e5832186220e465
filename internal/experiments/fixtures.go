package experiments

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
)

// noEvent is the zero time pair for buildCogentLink calls without an
// injected congestion.
var noEvent = time.Time{}

// cogentLink is the Fig 2 fixture: one backbone link inside a single AS
// (the paper's Cogent ZRH–MUC pair), observed by many probes whose return
// paths from the two link ends deliberately differ — the exact situation
// differential RTT is designed for.
//
// Forward path from every probe: P → R1 → R2 → T(arget); replies from R1
// return directly R1→P, replies from R2 and T return via the R2→P shortcut,
// so ∆(R1,R2) = δ(R1→R2) + d(R2→P) − d(R1→P): the per-probe return-path
// terms ε are fixed per probe and differ across probes.
type cogentLink struct {
	Platform *atlas.Platform
	Net      *netsim.Net
	Link     struct{ Near, Far netip.Addr }
	Target   netip.Addr
	ASN      ipmap.ASN
	R1, R2   netsim.RouterID
}

// buildCogentLink constructs the fixture with nProbes probes, each in its
// own AS. outlierProb adds rare huge measurement spikes (for Fig 3's
// outlier discussion and the A1 ablation). A congestion event of congestMS
// is injected on the monitored link during [congestStart, congestEnd) when
// congestMS > 0.
func buildCogentLink(seed uint64, nProbes int, outlierProb float64, congestStart, congestEnd time.Time, congestMS float64) (*cogentLink, error) {
	rng := rand.New(rand.NewPCG(seed, 0xc09e47))
	b := netsim.NewBuilder()
	const asn ipmap.ASN = 174
	b.AS(asn, "Cogent", "10.0.174.0/24")
	r1 := b.Router(asn, "cogent-zrh", netsim.RouterOpts{ResponseProb: 0.995})
	r2 := b.Router(asn, "cogent-muc", netsim.RouterOpts{ResponseProb: 0.995})
	tgt := b.Router(asn, "cogent-target", netsim.RouterOpts{ResponseProb: 0.995})

	// The monitored link: δ(R1→R2) ≈ 5.3 ms one way, mild jitter, the
	// default heavy-tail spikes.
	b.Link(r1, r2, netsim.LinkOpts{
		DelayMS: 5.3, DelayBAMS: 5.1, JitterMS: 0.12,
		WeightAB: 1, WeightBA: 1,
		SpikeProb: 0.01, SpikeMS: 25,
	})
	b.Link(r2, tgt, netsim.LinkOpts{DelayMS: 0.8, WeightAB: 1, WeightBA: 1})
	b.Service("10.0.174.200", asn, "", tgt)

	// Per-probe return-path delays: a majority cluster of probes with
	// near-identical paths (metro-area probes reaching the backbone the
	// same way) plus a dispersed minority. ε = d2 − d1 is then very dense
	// around its median, which is what gives the across-probe median of ∆
	// the paper's Fig 2 steadiness: the median's sampling noise scales as
	// 1/(2·f(median)·√m), so a sharp density peak pins it down to
	// hundredths of a millisecond despite σ(∆) in the tens.
	gaussDelay := func(sigma float64) float64 {
		d := 20 + sigma*rng.NormFloat64()
		if d < 5 {
			d = 5
		}
		if d > 60 {
			d = 60
		}
		return d
	}
	probeSigma := func(i int) float64 {
		if i%5 < 3 { // 60% tight cluster
			return 0.5
		}
		return 5
	}
	var sites []netsim.RouterID
	for i := 0; i < nProbes; i++ {
		pasn := ipmap.ASN(3000 + i)
		b.AS(pasn, fmt.Sprintf("probe-as-%d", i), netsim.ASPrefix(pasn))
		p := b.Router(pasn, fmt.Sprintf("probe-%d", i), netsim.RouterOpts{})
		// Forward access path P→R1 (return R1→P uses the same link).
		// Queueing spikes are common but moderate; measurement-error
		// outliers (outlierProb) are rare and huge, like the paper's 125
		// over two weeks of one link's samples.
		sigma := probeSigma(i)
		b.Link(p, r1, netsim.LinkOpts{
			DelayMS: gaussDelay(sigma), JitterMS: 0.25,
			WeightAB: 1, WeightBA: 1,
			SpikeProb: 0.008, SpikeMS: 30,
			OutlierProb: outlierProb, OutlierMS: 600,
		})
		// Return shortcut R2→P: never used forward (huge weight), always
		// used for replies from R2 and beyond (tiny weight). Its one-way
		// delay is the per-probe ε term.
		b.Link(p, r2, netsim.LinkOpts{
			DelayMS: gaussDelay(sigma), JitterMS: 0.25,
			WeightAB: 1e7, WeightBA: 0.5,
			SpikeProb: 0.008, SpikeMS: 30,
			OutlierProb: outlierProb, OutlierMS: 600,
		})
		sites = append(sites, p)
	}

	var scenario *netsim.Scenario
	if congestMS > 0 {
		scenario = netsim.NewScenario(netsim.Event{
			Name: "congest-monitored-link", Kind: netsim.EventCongestion,
			From: r1, To: r2, Both: true, ExtraDelayMS: congestMS,
			Start: congestStart, End: congestEnd,
		})
	}
	f := &cogentLink{}
	var err error
	f.Net, err = b.Build(scenario)
	if err != nil {
		return nil, err
	}
	f.R1, f.R2 = r1, r2
	f.Link.Near = f.Net.Router(r1).Addr
	f.Link.Far = f.Net.Router(r2).Addr
	f.Target = netip.MustParseAddr("10.0.174.200")
	f.ASN = asn
	f.Platform = atlas.NewPlatform(f.Net, seed, netsim.TracerouteOpts{})
	f.Platform.AddProbes(sites)
	f.Platform.AddBuiltin(f.Target)
	return f, nil
}

// Timeline anchors of the catalogue's cases. Dates mirror the paper's
// events (2015).
var (
	// The quiet baseline and the F5/T1 campaign start here.
	baselineStart = time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)

	ddosHistoryStart = time.Date(2015, 11, 23, 0, 0, 0, 0, time.UTC)
	ddosAttack1Start = time.Date(2015, 11, 30, 7, 0, 0, 0, time.UTC)
	ddosAttack1End   = time.Date(2015, 11, 30, 9, 30, 0, 0, time.UTC)
	ddosAttack2Start = time.Date(2015, 12, 1, 5, 0, 0, 0, time.UTC)
	ddosAttack2End   = time.Date(2015, 12, 1, 6, 0, 0, 0, time.UTC)
	ddosEnd          = time.Date(2015, 12, 2, 0, 0, 0, 0, time.UTC)

	leakHistoryStart = time.Date(2015, 6, 5, 0, 0, 0, 0, time.UTC)
	leakStart        = time.Date(2015, 6, 12, 9, 0, 0, 0, time.UTC)
	leakEnd          = time.Date(2015, 6, 12, 11, 0, 0, 0, time.UTC)
	leakRunEnd       = time.Date(2015, 6, 13, 0, 0, 0, 0, time.UTC)

	ixpHistoryStart = time.Date(2015, 5, 6, 0, 0, 0, 0, time.UTC)
	ixpOutageStart  = time.Date(2015, 5, 13, 10, 0, 0, 0, time.UTC)
	ixpOutageEnd    = time.Date(2015, 5, 13, 12, 0, 0, 0, time.UTC)
	ixpRunEnd       = time.Date(2015, 5, 14, 0, 0, 0, 0, time.UTC)

	// Adversity-suite cases (see adversity.go).
	anycastHistoryStart = time.Date(2015, 8, 25, 0, 0, 0, 0, time.UTC)
	anycastShiftStart   = time.Date(2015, 9, 1, 10, 0, 0, 0, time.UTC)
	anycastShiftEnd     = time.Date(2015, 9, 1, 13, 0, 0, 0, time.UTC)
	anycastRunEnd       = time.Date(2015, 9, 2, 0, 0, 0, 0, time.UTC)

	ixpfailHistoryStart = time.Date(2015, 7, 8, 0, 0, 0, 0, time.UTC)
	ixpfailStart        = time.Date(2015, 7, 15, 9, 0, 0, 0, time.UTC)
	ixpfailEnd          = time.Date(2015, 7, 15, 12, 0, 0, 0, time.UTC)
	ixpfailRunEnd       = time.Date(2015, 7, 16, 0, 0, 0, 0, time.UTC)

	fiberHistoryStart = time.Date(2015, 10, 13, 0, 0, 0, 0, time.UTC)
	fiberStart        = time.Date(2015, 10, 20, 8, 0, 0, 0, time.UTC)
	fiberEnd          = time.Date(2015, 10, 20, 14, 0, 0, 0, time.UTC)
	fiberRunEnd       = time.Date(2015, 10, 21, 0, 0, 0, 0, time.UTC)
)

// caseTopoConfig returns the shared multi-AS topology configuration for the
// case studies, sized by scale.
func caseTopoConfig(scale Scale, seed uint64) netsim.TopoConfig {
	if scale == Quick {
		return netsim.TopoConfig{
			Seed: seed, Tier1: 2, Transit: 6, Stub: 18,
			RoutersPerTier1: 4, IXPs: 1, IXPMembers: 5,
			Roots: 2, RootInstances: 4, Anchors: 4,
		}
	}
	return netsim.TopoConfig{
		Seed: seed, Tier1: 4, Transit: 12, Stub: 40,
		RoutersPerTier1: 5, IXPs: 2, IXPMembers: 8,
		Roots: 3, RootInstances: 6, Anchors: 8,
	}
}

// ddosScenario injects the §7.1 attack using the catchment-aware plan:
// the best-served instance (and every unassigned one) is congested during
// both attack windows, the plan's firstOnly instance only during the first
// (with a deliberately mild shift, so its reference is not polluted into
// the second window), and the spared instance is untouched. The upstream
// link of the best-served instance is congested too (Fig 7e), as are two
// instances of root 1 (the "F and I root" neighbors of Fig 8).
func ddosScenario(n *netsim.Topo, plan ddosPlan) []netsim.Event {
	var evs []netsim.Event
	root := n.Roots[0]
	congest := func(name string, from, to netsim.RouterID, ms float64, loss float64, s, e time.Time) {
		evs = append(evs, netsim.Event{
			Name: name, Kind: netsim.EventCongestion,
			From: from, To: to, Both: true,
			ExtraDelayMS: ms, Loss: loss, Start: s, End: e,
		})
	}
	for i := 0; i < len(root.Instances); i++ {
		site, inst := root.Sites[i], root.Instances[i]
		switch i {
		case plan.spared:
			// Untouched instance (the Poland instance of Fig 7b).
		case plan.firstOnly:
			congest(fmt.Sprintf("ddos1-only-i%d", i), site, inst, 20, 0.02, ddosAttack1Start, ddosAttack1End)
		default:
			congest(fmt.Sprintf("ddos1-i%d", i), site, inst, 40+10*float64(i), 0.03, ddosAttack1Start, ddosAttack1End)
			congest(fmt.Sprintf("ddos2-i%d", i), site, inst, 30+8*float64(i), 0.02, ddosAttack2Start, ddosAttack2End)
		}
	}
	if len(n.Roots) > 1 {
		r1 := n.Roots[1]
		for i := 0; i < 2 && i < len(r1.Instances); i++ {
			congest(fmt.Sprintf("ddos1-root1-i%d", i), r1.Sites[i], r1.Instances[i], 35, 0.02, ddosAttack1Start, ddosAttack1End)
		}
	}
	if plan.haveUpstream {
		congest("ddos1-upstream", plan.upstream.From, plan.upstream.To, 25, 0.01, ddosAttack1Start, ddosAttack1End)
	}
	return evs
}
