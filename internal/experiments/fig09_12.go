package experiments

import (
	"fmt"
	"strings"
	"time"

	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/report"
	"pinpoint/internal/trace"
)

// leakScenario injects the route leak on diversity-chosen victims: traffic
// attraction via rerouting of the first victim's uplinks plus congestion
// and loss across both victim backbones — the state Level(3) was in while
// absorbing the leaked routes. linkA/linkB are the Fig 11 crafted links.
func leakScenario(v0, v1 netsim.ASInfo, leaker *netsim.ASInfo, linkA, linkB dirLink, ingress0, ingress1 []dirLink) []netsim.Event {
	var evs []netsim.Event

	// Fig 11a analog: one link congested for the full window with a large
	// shift (+229 ms in the paper, London–London).
	evs = append(evs, netsim.Event{
		Name: "leak-linkA", Kind: netsim.EventCongestion,
		From: linkA.From, To: linkA.To, Both: true,
		ExtraDelayMS: 110, Loss: 0.05,
		Start: leakStart, End: leakEnd,
	})
	// Fig 11b analog: a link that first drops probes (no RTT samples at all
	// in the first hour) and then shows the congestion (+108 ms, NY–London).
	evs = append(evs, netsim.Event{
		Name: "leak-linkB-loss", Kind: netsim.EventLoss,
		From: linkB.From, To: linkB.To, Both: true,
		Loss:  0.97,
		Start: leakStart, End: leakStart.Add(time.Hour),
	})
	evs = append(evs, netsim.Event{
		Name: "leak-linkB-congestion", Kind: netsim.EventCongestion,
		From: linkB.From, To: linkB.To, Both: true,
		ExtraDelayMS: 55, Loss: 0.05,
		Start: leakStart.Add(time.Hour), End: leakEnd,
	})
	// Blanket congestion + loss across the remaining victim backbone links
	// ("congestion seen in numerous cities ... for both Level(3) ASes").
	// Loss above 50% flips single-next-hop patterns into anti-correlation,
	// which is what lights up the Fig 10 forwarding magnitudes.
	blanket := func(as netsim.ASInfo, ms float64) {
		for i := 0; i+1 < len(as.Routers); i++ {
			from, to := as.Routers[i], as.Routers[i+1]
			crafted := func(l dirLink) bool {
				return (l.From == from && l.To == to) || (l.From == to && l.To == from)
			}
			if crafted(linkA) || crafted(linkB) {
				continue
			}
			evs = append(evs, netsim.Event{
				Name: fmt.Sprintf("leak-%s-l%d", as.Name, i), Kind: netsim.EventCongestion,
				From: from, To: to, Both: true,
				ExtraDelayMS: ms, Loss: 0.55,
				Start: leakStart, End: leakEnd,
			})
		}
	}
	// Only the first victim's backbone gets the blanket: the second
	// victim's congestion signal comes from its ingress links and crafted
	// linkB — blanketing its remaining internal links would starve linkB's
	// flows of samples and erase the Fig 11b recovery alarm.
	blanket(v0, 90)
	// The peering links INTO the victims congest and drop packets — the
	// paper attributes the event to "congested peering links between
	// Telekom Malaysia and Level(3)". Inbound loss makes the victims'
	// border routers disappear as next hops in their neighbors' forwarding
	// models, which is exactly the Fig 10 negative-magnitude signature
	// (devalued victim IPs, no compensating positive scores: the lost
	// packets land in the unresponsive bucket).
	ingress := func(name string, links []dirLink, ms, loss float64, s, e time.Time) {
		for i, l := range links {
			evs = append(evs, netsim.Event{
				Name: fmt.Sprintf("%s-%d", name, i), Kind: netsim.EventCongestion,
				From: l.From, To: l.To, Both: true,
				ExtraDelayMS: ms, Loss: loss,
				Start: s, End: e,
			})
		}
	}
	// Both directions lossy: the round trip compounds to >50% packet loss,
	// enough to flip single-next-hop patterns into anti-correlation. The
	// second victim's heavy loss lasts only the first hour (matching the
	// paper's Fig 11b: the NY router "suspected of dropping probing packets
	// from 09:00 to 10:00"), then tapers so its crafted link regains the
	// samples that produce the 10:00 delay alarm.
	ingress("leak-ingress-v0", ingress0, 80, 0.45, leakStart, leakEnd)
	ingress("leak-ingress-v1-h1", ingress1, 60, 0.45, leakStart, leakStart.Add(time.Hour))
	ingress("leak-ingress-v1-h2", ingress1, 60, 0.15, leakStart.Add(time.Hour), leakEnd)
	// The reroute: leaked routes shift flows in a third, otherwise healthy
	// AS (the leaker's side). Deliberately NOT inside the victims: diverting
	// the victims' own traffic would starve the crafted links of samples,
	// whereas the paper's leak kept traffic flowing *through* the congested
	// Level(3) links.
	if leaker != nil && len(leaker.Border) > 0 {
		evs = append(evs, netsim.Event{
			Name: "leak-reroute", Kind: netsim.EventReroute,
			From: leaker.Border[0], To: leaker.Routers[0], Both: true, WeightFactor: 8,
			Start: leakStart, End: leakEnd,
		})
	}

	return evs
}

// planLeakCase picks the leak's actors by quiet-routing diversity: the
// victims are the transit ASes whose internal links see the most
// probe-AS-diverse traffic, and linkA/linkB their busiest internal links.
func planLeakCase(topo *netsim.Topo, quiet *netsim.Net, _ Scale) ([]netsim.Event, caseRoles, error) {
	div := linkDiversity(quiet, topo.ProbeSites(), topo.Targets(), leakHistoryStart)
	rank := rankTransitByDiversity(quiet, topo, div)
	v0, v1 := topo.Transit[rank[0]], topo.Transit[rank[1]]
	var leaker *netsim.ASInfo
	if len(rank) > 2 {
		leaker = &topo.Transit[rank[2]]
	}
	linkA, _ := bestIntraASLink(quiet, v0, div)
	linkB, _ := bestIntraASLink(quiet, v1, div)
	roles := caseRoles{victims: [2]ipmap.ASN{v0.ASN, v1.ASN}, linkA: addrLink(quiet, linkA), linkB: addrLink(quiet, linkB)}
	return leakScenario(v0, v1, leaker, linkA, linkB, ingressLinks(quiet, v0), ingressLinks(quiet, v1)), roles, nil
}

// runLeak is the §7.2 run shared by F9–F12 and the Fig 12 graph.
func runLeak(scale Scale) (*caseRun[roleObs], error) {
	return runCase(caseRow("leak"), scale, watchRoles)
}

// Fig09LeakDelayMagnitude regenerates Fig 9: delay-change magnitude for the
// two victim transit ASes, peaking during the leak window.
func Fig09LeakDelayMagnitude(scale Scale) (*Report, error) {
	d, err := runLeak(scale)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	metrics := map[string]float64{}
	claims := []Claim{}
	for i, asn := range d.roles.victims {
		mags := d.magnitude(asn, events.DelayChange)
		in, outPeak := extremes(mags, d.EventWindows, +1)
		inPeak := in[0]
		sb.WriteString(report.TimeSeries(fmt.Sprintf("%s delay change magnitude", asn), mags, 7))
		sb.WriteString("\n")
		metrics[fmt.Sprintf("victim%d_in_peak", i)] = inPeak
		metrics[fmt.Sprintf("victim%d_out_peak", i)] = outPeak
		claims = append(claims, Claim{
			Name:     fmt.Sprintf("victim %d magnitude peaks during leak", i),
			Paper:    "positive peaks June 12 09:00–11:00 (Fig 9)",
			Measured: fmt.Sprintf("in=%.0f out=%.0f", inPeak, outPeak),
			Holds:    inPeak > 10 && inPeak > 3*max(outPeak, 1),
		})
	}
	return &Report{
		ID: "F9", Title: "Route-leak delay magnitude (victim ASes)", Scale: scale,
		Text: sb.String(), Metrics: metrics, Claims: claims,
	}, nil
}

// Fig10LeakForwardingMagnitude regenerates Fig 10: both victims' forwarding
// magnitudes dip sharply negative in the same window (routers disappearing
// from forwarding models + packet loss).
func Fig10LeakForwardingMagnitude(scale Scale) (*Report, error) {
	d, err := runLeak(scale)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	metrics := map[string]float64{}
	claims := []Claim{}
	for i, asn := range d.roles.victims {
		mags := d.magnitude(asn, events.ForwardingAnomaly)
		in, outMin := extremes(mags, d.EventWindows, -1)
		inMin := in[0]
		sb.WriteString(report.TimeSeries(fmt.Sprintf("%s forwarding anomaly magnitude", asn), mags, 7))
		sb.WriteString("\n")
		metrics[fmt.Sprintf("victim%d_in_min", i)] = inMin
		metrics[fmt.Sprintf("victim%d_out_min", i)] = outMin
		claims = append(claims, Claim{
			Name:     fmt.Sprintf("victim %d forwarding magnitude dips during leak", i),
			Paper:    "negative peaks June 12 09:00–11:00 (Fig 10)",
			Measured: fmt.Sprintf("in=%.1f out=%.1f", inMin, outMin),
			Holds:    inMin < -1 && inMin < outMin,
		})
	}
	return &Report{
		ID: "F10", Title: "Route-leak forwarding magnitude", Scale: scale,
		Text: sb.String(), Metrics: metrics, Claims: claims,
	}, nil
}

// Fig11LeakLinks regenerates Fig 11: one victim link alarms for the whole
// window with a large shift; the other loses its RTT samples in the first
// hour (forwarding anomaly) and alarms once samples return — the
// complementarity of the two methods.
func Fig11LeakLinks(scale Scale) (*Report, error) {
	d, err := runLeak(scale)
	if err != nil {
		return nil, err
	}

	obsFor := func(k trace.LinkKey) []delay.Observation {
		if len(d.state[k]) >= len(d.state[k.Reverse()]) {
			return d.state[k]
		}
		return d.state[k.Reverse()]
	}
	// The leak window, and linkB's loss hour and congested rest within it.
	leak := d.EventWindows[0]
	lossHour := [2]time.Time{leak[0], leak[0].Add(time.Hour)}
	congested := [2]time.Time{lossHour[1], leak[1]}

	linkA, linkB := d.roles.linkA, d.roles.linkB
	obsA := obsFor(linkA)
	obsB := obsFor(linkB)

	var aAlarms int
	var aShift float64
	for _, o := range obsA {
		if o.Anomalous && inWindow(leak, o.Bin) {
			aAlarms++
			shift := o.Observed.Median - o.Reference.Median
			if shift > aShift {
				aShift = shift
			}
		}
	}
	var bFirstHourObs, bSecondHourAlarms int
	for _, o := range obsB {
		if inWindow(lossHour, o.Bin) {
			bFirstHourObs++
		}
		if o.Anomalous && inWindow(congested, o.Bin) {
			bSecondHourAlarms++
		}
	}
	// Forwarding anomalies naming linkB's near end during the loss hour.
	bFwd := 0
	for _, al := range d.a.ForwardingAlarms() {
		if inWindow(lossHour, al.Bin) {
			if al.Router == linkB.Near || al.Router == linkB.Far {
				bFwd++
				continue
			}
			for _, h := range al.Hops {
				if h.Hop == linkB.Near || h.Hop == linkB.Far {
					bFwd++
					break
				}
			}
		}
	}

	var sb strings.Builder
	sb.WriteString(report.Table([][]string{
		{"link", "role", "observed bins", "alarm bins in window", "max median shift"},
		{linkA.String(), "congested 09–11h (Fig 11a)", fmt.Sprintf("%d", len(obsA)), fmt.Sprintf("%d", aAlarms), report.MS(aShift)},
		{linkB.String(), "loss 09–10h, congested 10–11h (Fig 11b)", fmt.Sprintf("%d", len(obsB)), fmt.Sprintf("%d", bSecondHourAlarms), "—"},
	}))
	fmt.Fprintf(&sb, "\nlink B evaluated bins during the loss hour: %d (loss starves the delay detector)\n", bFirstHourObs)
	fmt.Fprintf(&sb, "forwarding alarms naming link B's ends during the loss hour: %d\n", bFwd)

	r := &Report{
		ID: "F11", Title: "Route-leak per-link complementarity", Scale: scale,
		Text: sb.String(),
		Metrics: map[string]float64{
			"linkA_alarms":      float64(aAlarms),
			"linkA_shift_ms":    aShift,
			"linkB_gap_bins":    float64(bFirstHourObs),
			"linkB_late_alarms": float64(bSecondHourAlarms),
			"linkB_fwd_alarms":  float64(bFwd),
		},
	}
	r.Claims = []Claim{
		{
			Name:     "fully congested link alarms with a large shift",
			Paper:    "London–London +229 ms, reported 09:00 and 10:00 (11a)",
			Measured: fmt.Sprintf("%d alarms, max shift %.0f ms", aAlarms, aShift),
			Holds:    aAlarms >= 2 && aShift > 50,
		},
		{
			Name:     "lossy link starves the delay detector first",
			Paper:    "RTT samples missing at 09:00 due to packet loss (11b)",
			Measured: fmt.Sprintf("%d evaluated bins in loss hour", bFirstHourObs),
			Holds:    bFirstHourObs == 0,
		},
		{
			Name:     "delay alarm appears when samples return",
			Paper:    "NY–London +108 ms reported at 10:00 (11b)",
			Measured: fmt.Sprintf("%d alarms in the second hour", bSecondHourAlarms),
			Holds:    bSecondHourAlarms >= 1,
		},
		{
			Name:     "forwarding model covers the gap",
			Paper:    "NY address found in forwarding anomalies 09:00–10:00",
			Measured: fmt.Sprintf("%d forwarding alarms", bFwd),
			Holds:    bFwd >= 1,
		},
	}
	return r, nil
}

// Fig12LeakGraph regenerates Fig 12: the connected alarm component inside
// the victim backbone at the leak peak, with per-edge median shifts and
// forwarding-flagged (red) nodes.
func Fig12LeakGraph(scale Scale) (*Report, error) {
	d, err := runLeak(scale)
	if err != nil {
		return nil, err
	}
	leak := d.EventWindows[0]
	g := d.a.Graph(leak[0], leak[1])
	nodes := g.ComponentNodes(d.roles.linkA.Near)
	edges := g.Component(d.roles.linkA.Near)
	flagged := 0
	for _, n := range nodes {
		if g.Flagged(n) {
			flagged++
		}
	}
	maxShift := 0.0
	for _, e := range edges {
		if e.ShiftMS > maxShift {
			maxShift = e.ShiftMS
		}
	}

	var sb strings.Builder
	sb.WriteString(report.Table([][]string{
		{"quantity", "value", "paper (Fig 12)"},
		{"component nodes", fmt.Sprintf("%d", len(nodes)), "≈ a dozen (London)"},
		{"component edges", fmt.Sprintf("%d", len(edges)), "—"},
		{"forwarding-flagged (red) nodes", fmt.Sprintf("%d", flagged), "several"},
		{"max edge shift", report.MS(maxShift), "+229 ms"},
	}))

	r := &Report{
		ID: "F12", Title: "Route-leak alarm graph", Scale: scale,
		Text: sb.String(),
		Metrics: map[string]float64{
			"nodes": float64(len(nodes)), "edges": float64(len(edges)),
			"flagged": float64(flagged), "max_shift": maxShift,
		},
	}
	r.Claims = []Claim{
		{
			Name:     "adjacent victim links form one component",
			Paper:    "several adjacent links reported together",
			Measured: fmt.Sprintf("%d nodes / %d edges", len(nodes), len(edges)),
			Holds:    len(nodes) >= 3 && len(edges) >= 2,
		},
		{
			Name:     "forwarding anomalies mark nodes in the component",
			Paper:    "red nodes in Fig 12",
			Measured: fmt.Sprintf("%d flagged", flagged),
			Holds:    flagged >= 1,
		},
	}
	return r, nil
}
