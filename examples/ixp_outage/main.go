// Exchange-point outage (the paper's §7.3 case study, analog of the AMS-IX
// incident of May 13 2015): the peering LAN stops switching packets. No
// delay signal exists — probes simply vanish — so only the packet
// forwarding model sees the event, as a surge of unresponsive next hops in
// the IXP prefix.
//
//	go run ./examples/ixp_outage
package main

import (
	"fmt"
	"log"
	"maps"
	"net/netip"
	"slices"
	"time"

	"pinpoint"
	"pinpoint/internal/experiments"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/report"
)

func main() {
	log.SetFlags(0)

	c, err := experiments.NewCase("ixp", experiments.Quick)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Description)
	win := c.EventWindows[0]
	fmt.Printf("outage window: %s .. %s\n\n", win[0].Format("Jan 2 15:04"), win[1].Format("15:04"))

	analyzer := pinpoint.New(pinpoint.Config{RetainAlarms: true},
		c.Platform.ProbeASN, c.Net.Prefixes())
	if err := c.Platform.Run(c.Start, c.End, func(r pinpoint.Result) error {
		analyzer.Observe(r)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	analyzer.Flush()

	ixp := c.Topo.IXPs[0]
	prefix := netip.MustParsePrefix(ixp.Prefix)
	agg := analyzer.Aggregator()

	// Fig 13: the forwarding magnitude of the peering-LAN AS dips sharply;
	// the delay magnitude stays quiet (nothing to measure when packets are
	// gone).
	fm := agg.ForwardingMagnitude(ixp.ASN, c.Start.Add(24*time.Hour), c.End)
	fmt.Println(report.TimeSeries(fmt.Sprintf("%s (%s) forwarding magnitude (Fig 13)", ixp.ASN, ixp.Name), fm, 8))

	dm := agg.DelayMagnitude(ixp.ASN, c.Start.Add(24*time.Hour), c.End)
	maxDelay := 0.0
	for _, p := range dm {
		if p.V > maxDelay {
			maxDelay = p.V
		}
	}
	fmt.Printf("max delay magnitude for %s over the run: %.1f (the delay method is blind here)\n\n",
		ixp.ASN, maxDelay)

	// The paper's "770 unresponsive IP pairs": which peers could not
	// exchange traffic.
	pairs := map[string]float64{}
	for _, al := range analyzer.ForwardingAlarms() {
		if al.Bin.Before(win[0]) || !al.Bin.Before(win[1]) {
			continue
		}
		for _, h := range al.Hops {
			if h.Hop == forwarding.Unresponsive || !h.Hop.IsValid() {
				continue
			}
			if prefix.Contains(h.Hop) && h.Responsibility < 0 {
				pairs[al.Router.String()+" > "+h.Hop.String()] += h.Responsibility
			}
		}
	}
	fmt.Printf("unresponsive peering-LAN pairs during the outage: %d\n", len(pairs))
	rows := [][]string{{"pair (router > LAN next hop)", "Σ responsibility"}}
	for _, k := range slices.Sorted(maps.Keys(pairs)) {
		rows = append(rows, []string{k, fmt.Sprintf("%.2f", pairs[k])})
	}
	fmt.Print(report.Table(rows))
}
