package experiments

import (
	"fmt"
	"net/netip"
	"strings"

	"pinpoint/internal/events"
	"pinpoint/internal/netsim"
	"pinpoint/internal/report"
)

// planIXPCase injects the LAN-wide fault of the §7.3 outage.
func planIXPCase(topo *netsim.Topo, _ *netsim.Net, _ Scale) ([]netsim.Event, caseRoles, error) {
	// The technical fault: the whole peering LAN stops switching packets
	// and stops answering traceroute — every member interface goes dark.
	var evs []netsim.Event
	for _, iface := range topo.IXPs[0].Ifaces {
		evs = append(evs,
			netsim.Event{
				Name: "ixp-blackhole", Kind: netsim.EventBlackhole, Router: iface,
				Loss: 1, Start: ixpOutageStart, End: ixpOutageEnd,
			},
			netsim.Event{
				Name: "ixp-silence", Kind: netsim.EventSilence, Router: iface,
				Start: ixpOutageStart, End: ixpOutageEnd,
			},
		)
	}
	return evs, caseRoles{}, nil
}

// Fig13IXPOutage regenerates Fig 13: the outage is invisible to the delay
// method (no RTT samples to compare) but the forwarding magnitude of the
// peering-LAN AS dips sharply; unresponsive IP pairs identify the peers
// that could not exchange traffic (paper: 770 pairs).
func Fig13IXPOutage(scale Scale) (*Report, error) {
	d, err := runCase[struct{}](caseRow("ixp"), scale, nil)
	if err != nil {
		return nil, err
	}
	ixp := d.Topo.IXPs[0]
	lan := netip.MustParsePrefix(ixp.Prefix)

	fwdMags := d.magnitude(ixp.ASN, events.ForwardingAnomaly)
	fwdIn, fwdMinOut := extremes(fwdMags, d.EventWindows, -1)
	delayIn, _ := extremes(d.magnitude(ixp.ASN, events.DelayChange), d.EventWindows, +1)
	fwdMin, delayMaxIn := fwdIn[0], delayIn[0]

	// "770 IP pairs related to the AMS-IX peering LAN became unresponsive":
	// distinct (router, LAN next hop) pairs devalued during the outage.
	pairs := map[string]struct{}{}
	for _, al := range d.a.ForwardingAlarms() {
		if !inWindow(d.EventWindows[0], al.Bin) {
			continue
		}
		for _, h := range al.Hops {
			if h.Hop.IsValid() && lan.Contains(h.Hop) && h.Responsibility < 0 {
				pairs[al.Router.String()+">"+h.Hop.String()] = struct{}{}
			}
		}
	}

	var sb strings.Builder
	sb.WriteString(report.TimeSeries(fmt.Sprintf("%s (%s peering LAN) forwarding anomaly magnitude", ixp.ASN, ixp.Name), fwdMags, 7))
	sb.WriteString("\n")
	sb.WriteString(report.Table([][]string{
		{"quantity", "value", "paper"},
		{"min forwarding magnitude in outage", fmt.Sprintf("%.1f", fwdMin), "strong negative peak (Fig 13)"},
		{"min forwarding magnitude outside", fmt.Sprintf("%.1f", fwdMinOut), "—"},
		{"max delay magnitude in outage", fmt.Sprintf("%.1f", delayMaxIn), "delay method inconclusive"},
		{"unresponsive LAN IP pairs", fmt.Sprintf("%d", len(pairs)), "770 (full Atlas scale)"},
	}))

	r := &Report{
		ID: "F13", Title: "IXP outage forwarding anomaly", Scale: scale,
		Text: sb.String(),
		Metrics: map[string]float64{
			"fwd_min_in":   fwdMin,
			"fwd_min_out":  fwdMinOut,
			"delay_max_in": delayMaxIn,
			"lan_pairs":    float64(len(pairs)),
		},
	}
	r.Claims = []Claim{
		{
			Name:     "forwarding magnitude dips during the outage",
			Paper:    "significant negative peak May 13 11:00",
			Measured: fmt.Sprintf("min %.1f in window vs %.1f outside", fwdMin, fwdMinOut),
			Holds:    fwdMin < -1 && fwdMin < fwdMinOut,
		},
		{
			Name:     "delay method alone misses the outage",
			Paper:    "delay change method did not conclusively detect it",
			Measured: fmt.Sprintf("max delay magnitude %.1f", delayMaxIn),
			Holds:    delayMaxIn < -fwdMin,
		},
		{
			Name:     "unresponsive peering pairs identified",
			Paper:    "770 LAN IP pairs unresponsive",
			Measured: fmt.Sprintf("%d pairs (scaled)", len(pairs)),
			Holds:    len(pairs) >= 3,
		},
	}
	return r, nil
}
