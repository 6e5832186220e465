package experiments

import (
	"net/netip"
	"sort"
	"time"

	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

// Scenario planning: case-study events must land on links the probes
// actually traverse with enough AS diversity, otherwise the detectors
// (correctly) never evaluate them. These helpers inspect the quiet-epoch
// routing of a built network — the same information an operator has when
// placing Atlas anchors (§8) — and pick the busiest targets.

// dirLink is a directed router pair.
type dirLink struct{ From, To netsim.RouterID }

// addrLink is l as the detectors key it, by interface address.
func addrLink(n *netsim.Net, l dirLink) trace.LinkKey {
	return trace.LinkKey{Near: n.Router(l.From).Addr, Far: n.Router(l.To).Addr}
}

// linkDiversity returns, for every directed link on a forward path from a
// probe site to a target, the set of probe ASes traversing it.
func linkDiversity(n *netsim.Net, sites []netsim.RouterID, targets []netip.Addr, at time.Time) map[dirLink]map[ipmap.ASN]struct{} {
	out := make(map[dirLink]map[ipmap.ASN]struct{})
	for _, site := range sites {
		asn := n.Router(site).AS
		for _, dst := range targets {
			path, ok := n.ForwardPath(site, dst, at, 0)
			if !ok {
				continue
			}
			for i := 0; i+1 < len(path); i++ {
				l := dirLink{From: path[i], To: path[i+1]}
				set := out[l]
				if set == nil {
					set = make(map[ipmap.ASN]struct{})
					out[l] = set
				}
				set[asn] = struct{}{}
			}
		}
	}
	return out
}

// bestIntraASLink returns the intra-AS directed link of `as` with the most
// distinct traversing probe ASes, and that count.
func bestIntraASLink(n *netsim.Net, as netsim.ASInfo, div map[dirLink]map[ipmap.ASN]struct{}) (dirLink, int) {
	inAS := make(map[netsim.RouterID]bool, len(as.Routers))
	for _, r := range as.Routers {
		inAS[r] = true
	}
	var best dirLink
	bestN := 0
	// Deterministic scan order.
	links := make([]dirLink, 0, len(div))
	for l := range div {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	for _, l := range links {
		if !inAS[l.From] || !inAS[l.To] {
			continue
		}
		if n := len(div[l]); n > bestN {
			best, bestN = l, n
		}
	}
	return best, bestN
}

// rankTransitByDiversity orders the transit ASes by the diversity of their
// busiest intra-AS link, descending. Victim selection for the route-leak
// case uses the top entries so the injected congestion is observable.
func rankTransitByDiversity(n *netsim.Net, topo *netsim.Topo, div map[dirLink]map[ipmap.ASN]struct{}) []int {
	type scored struct {
		idx int
		n   int
	}
	var s []scored
	for i, as := range topo.Transit {
		_, cnt := bestIntraASLink(n, as, div)
		s = append(s, scored{idx: i, n: cnt})
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].n > s[j].n })
	out := make([]int, len(s))
	for i, sc := range s {
		out[i] = sc.idx
	}
	return out
}

// rootCatchment returns, per instance of the root, the set of probe ASes
// whose anycast routing lands on it, plus the most AS-diverse upstream link
// (X → site) feeding each instance's site.
func rootCatchment(n *netsim.Net, root netsim.RootInfo, sites []netsim.RouterID, at time.Time) (catch map[netsim.RouterID]map[ipmap.ASN]struct{}, upstream map[netsim.RouterID]dirLink) {
	catch = make(map[netsim.RouterID]map[ipmap.ASN]struct{})
	upDiv := make(map[netsim.RouterID]map[dirLink]map[ipmap.ASN]struct{})
	for _, site := range sites {
		asn := n.Router(site).AS
		path, ok := n.ForwardPath(site, root.Addr, at, 0)
		if !ok || len(path) < 2 {
			continue
		}
		inst := path[len(path)-1]
		set := catch[inst]
		if set == nil {
			set = make(map[ipmap.ASN]struct{})
			catch[inst] = set
		}
		set[asn] = struct{}{}
		if len(path) >= 3 {
			l := dirLink{From: path[len(path)-3], To: path[len(path)-2]}
			m := upDiv[inst]
			if m == nil {
				m = make(map[dirLink]map[ipmap.ASN]struct{})
				upDiv[inst] = m
			}
			s := m[l]
			if s == nil {
				s = make(map[ipmap.ASN]struct{})
				m[l] = s
			}
			s[asn] = struct{}{}
		}
	}
	upstream = make(map[netsim.RouterID]dirLink)
	for inst, m := range upDiv {
		var best dirLink
		bestN := 0
		links := make([]dirLink, 0, len(m))
		for l := range m {
			links = append(links, l)
		}
		sort.Slice(links, func(i, j int) bool {
			if links[i].From != links[j].From {
				return links[i].From < links[j].From
			}
			return links[i].To < links[j].To
		})
		for _, l := range links {
			if n := len(m[l]); n > bestN {
				best, bestN = l, n
			}
		}
		upstream[inst] = best
	}
	return catch, upstream
}

// ingressLinks returns the external→internal directed links of an AS: for
// every AS router, each link from a neighbor in a different AS. These are
// the peering/transit links that congest when leaked routes drag traffic in.
func ingressLinks(n *netsim.Net, as netsim.ASInfo) []dirLink {
	inAS := make(map[netsim.RouterID]bool, len(as.Routers))
	for _, r := range as.Routers {
		inAS[r] = true
	}
	seen := map[dirLink]bool{}
	var out []dirLink
	for _, r := range as.Routers {
		for _, nb := range n.Neighbors(r) {
			if inAS[nb] || n.Router(nb).AS == as.ASN {
				continue
			}
			l := dirLink{From: nb, To: r}
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	return out
}

// ddosPlan assigns the Fig 7 roles to root instances by catchment size:
// the best-served instance is hit by both attacks, the next by the first
// attack only, the third is spared; everything else is hit by both.
type ddosPlan struct {
	both, firstOnly, spared int // indices into root.Instances
	upstream                dirLink
	haveUpstream            bool
}

func planDDoS(n *netsim.Net, topo *netsim.Topo, at time.Time) ddosPlan {
	root := topo.Roots[0]
	catch, upstream := rootCatchment(n, root, topo.ProbeSites(), at)
	type scored struct {
		idx int
		n   int
	}
	var s []scored
	for i, inst := range root.Instances {
		s = append(s, scored{idx: i, n: len(catch[inst])})
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].n > s[j].n })
	plan := ddosPlan{both: s[0].idx, firstOnly: s[0].idx, spared: s[0].idx}
	if len(s) > 1 {
		plan.firstOnly = s[1].idx
	}
	if len(s) > 2 {
		plan.spared = s[2].idx
	}
	if up, ok := upstream[root.Instances[plan.both]]; ok && up.From != up.To {
		plan.upstream = up
		plan.haveUpstream = true
	}
	return plan
}
