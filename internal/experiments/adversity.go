package experiments

import (
	"fmt"
	"time"

	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
)

// Adversity-suite plans: three disruption shapes beyond the paper's §7
// trio, built for measuring detector robustness (see robust.go). Their
// catalogue rows carry the ground-truth windows.

// planAnycastCase injects an anycast catchment shift: every root instance
// except the least-served one has its site link rerouted away (weight ×
// 1e6) for three hours — the BGP-withdrawal shape of a botched anycast
// maintenance, where one surviving site suddenly absorbs the entire probe
// population. Forward paths toward the root change for nearly every probe
// and RTTs jump to the (farther) surviving instance.
func planAnycastCase(topo *netsim.Topo, quiet *netsim.Net, _ Scale) ([]netsim.Event, caseRoles, error) {
	root := topo.Roots[0]
	// Keep the least-served instance (smallest quiet catchment) so the
	// withdrawal moves the largest possible probe population.
	catch, _ := rootCatchment(quiet, root, topo.ProbeSites(), anycastHistoryStart)
	keep := 0
	for i, inst := range root.Instances {
		if len(catch[inst]) < len(catch[root.Instances[keep]]) {
			keep = i
		}
	}
	var evs []netsim.Event
	for i := range root.Instances {
		if i == keep {
			continue
		}
		evs = append(evs, netsim.Event{
			Name: fmt.Sprintf("anycast-withdraw-%d", i), Kind: netsim.EventReroute,
			From: root.Sites[i], To: root.Instances[i], Both: true,
			WeightFactor: 1e6,
			Start:        anycastShiftStart, End: anycastShiftEnd,
		})
	}
	return evs, caseRoles{}, nil
}

// planIXPFailCase injects an IXP failover: every peering-LAN link of the
// first exchange goes administratively down, so member-to-member traffic
// reroutes through transit. Unlike the §7.3 "ixp" case (blackhole +
// silence: pure loss, no routing reaction) this one is route-affecting —
// the LAN hops vanish from paths and the detours carry a delay signal.
func planIXPFailCase(topo *netsim.Topo, _ *netsim.Net, _ Scale) ([]netsim.Event, caseRoles, error) {
	ixp := topo.IXPs[0]
	var evs []netsim.Event
	for a := 0; a < len(ixp.Ifaces); a++ {
		for z := a + 1; z < len(ixp.Ifaces); z++ {
			evs = append(evs, netsim.Event{
				Name: fmt.Sprintf("ixpfail-%d-%d", a, z), Kind: netsim.EventLinkDown,
				From: ixp.Ifaces[a], To: ixp.Ifaces[z], Both: true,
				Start: ixpfailStart, End: ixpfailEnd,
			})
		}
	}
	return evs, caseRoles{}, nil
}

// planFiberCase injects a partial fiber degradation with asymmetric return
// paths: the busiest inter-AS backbone direction (found by walking
// quiet-routing forward paths from every probe to every target) gains 18 ms
// and 2% loss in that direction only. Replies riding the healthy reverse
// direction are untouched, so only traces whose *forward* leg crosses the
// sick fiber see the shift — the asymmetry the differential-RTT method is
// built to survive.
func planFiberCase(topo *netsim.Topo, quiet *netsim.Net, _ Scale) ([]netsim.Event, caseRoles, error) {
	from, to, ok := busiestBackboneLink(quiet, topo, fiberHistoryStart)
	if !ok {
		return nil, caseRoles{}, fmt.Errorf("experiments: fiber case found no inter-AS backbone link in use")
	}
	evs := []netsim.Event{
		{
			Name: "fiber-degrade-delay", Kind: netsim.EventCongestion,
			From: from, To: to, // one direction only: asymmetric by design
			ExtraDelayMS: 18, Loss: 0.02,
			Start: fiberStart, End: fiberEnd,
		},
	}
	return evs, caseRoles{}, nil
}

// busiestBackboneLink walks quiet forward paths from every probe site to
// every target over a few Paris flow ids and returns the most-traversed
// directed router pair crossing between two core (tier-1 or transit) ASes.
// The delay detector only evaluates links measured by at least three
// distinct probe ASes (MinASes), so the census ranks pairs by probe-site
// diversity first and raw crossings second; a degraded link nobody can
// triangulate would make the case undetectable by construction.
func busiestBackboneLink(n *netsim.Net, topo *netsim.Topo, at time.Time) (from, to netsim.RouterID, ok bool) {
	core := make(map[ipmap.ASN]bool, len(topo.Tier1)+len(topo.Transit))
	for _, as := range topo.Tier1 {
		core[as.ASN] = true
	}
	for _, as := range topo.Transit {
		core[as.ASN] = true
	}
	type pair struct{ a, b netsim.RouterID }
	type tally struct {
		crossings int
		probes    map[netsim.RouterID]bool
	}
	counts := make(map[pair]*tally)
	for _, probe := range topo.ProbeSites() {
		for _, tgt := range topo.Targets() {
			for paris := 0; paris < 4; paris++ {
				path, _ := n.ForwardPath(probe, tgt, at, paris)
				for i := 0; i+1 < len(path); i++ {
					ra, rb := n.Router(path[i]), n.Router(path[i+1])
					if ra.AS == rb.AS || !core[ra.AS] || !core[rb.AS] {
						continue
					}
					p := pair{path[i], path[i+1]}
					t := counts[p]
					if t == nil {
						t = &tally{probes: make(map[netsim.RouterID]bool)}
						counts[p] = t
					}
					t.crossings++
					t.probes[probe] = true
				}
			}
		}
	}
	best, bestProbes, bestN := pair{netsim.NoRouter, netsim.NoRouter}, 0, 0
	for p, t := range counts {
		np := len(t.probes)
		// Deterministic argmax: probe diversity, then crossings, then (a, b).
		better := np > bestProbes ||
			(np == bestProbes && (t.crossings > bestN ||
				(t.crossings == bestN && (p.a < best.a || (p.a == best.a && p.b < best.b)))))
		if better {
			best, bestProbes, bestN = p, np, t.crossings
		}
	}
	if bestN == 0 {
		return netsim.NoRouter, netsim.NoRouter, false
	}
	return best.a, best.b, true
}
