// BGP route leak congesting a tier-1 backbone (the paper's §7.2 case
// study, analog of the Telekom Malaysia leak of June 12 2015): leaked
// routes drag traffic through two victim transit networks whose links
// congest and drop packets. The example shows the two complementary
// detectors working together: delay changes where samples survive,
// forwarding anomalies where packets vanish.
//
//	go run ./examples/route_leak
package main

import (
	"cmp"
	"fmt"
	"log"
	"slices"
	"time"

	"pinpoint"
	"pinpoint/internal/experiments"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/report"
)

func main() {
	log.SetFlags(0)

	c, err := experiments.NewCase("leak", experiments.Quick)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Description)
	win := c.EventWindows[0]
	fmt.Printf("leak window: %s .. %s\n\n", win[0].Format("Jan 2 15:04"), win[1].Format("15:04"))

	analyzer := pinpoint.New(pinpoint.Config{RetainAlarms: true},
		c.Platform.ProbeASN, c.Net.Prefixes())
	if err := c.Platform.Run(c.Start, c.End, func(r pinpoint.Result) error {
		analyzer.Observe(r)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	analyzer.Flush()

	// Rank ASes by delay severity during the leak window — the victims
	// surface without any prior knowledge of the scenario.
	agg := analyzer.Aggregator()
	type hit struct {
		asn ipmap.ASN
		dev float64
	}
	totals := map[ipmap.ASN]float64{}
	for _, al := range analyzer.DelayAlarms() {
		if al.Bin.Before(win[0]) || !al.Bin.Before(win[1]) {
			continue
		}
		for _, asn := range lookupBoth(c, al) {
			totals[asn] += al.Deviation
		}
	}
	var hits []hit
	for asn, dev := range totals {
		hits = append(hits, hit{asn, dev})
	}
	// Largest deviation first; equal totals rank by AS number, so the table
	// does not depend on map order.
	slices.SortFunc(hits, func(a, b hit) int {
		if c := cmp.Compare(b.dev, a.dev); c != 0 {
			return c
		}
		return cmp.Compare(a.asn, b.asn)
	})
	rows := [][]string{{"AS", "Σ deviation during leak"}}
	for i, h := range hits {
		if i >= 5 {
			break
		}
		rows = append(rows, []string{h.asn.String(), fmt.Sprintf("%.0f", h.dev)})
	}
	fmt.Println(report.Table(rows))

	// Magnitude series for the top victim: positive delay peak and negative
	// forwarding dip in the same window (Figs 9 and 10).
	if len(hits) > 0 {
		victim := hits[0].asn
		dm := agg.DelayMagnitude(victim, c.Start.Add(24*time.Hour), c.End)
		fm := agg.ForwardingMagnitude(victim, c.Start.Add(24*time.Hour), c.End)
		fmt.Println(report.TimeSeries(fmt.Sprintf("%s delay magnitude (Fig 9)", victim), dm, 6))
		fmt.Println(report.TimeSeries(fmt.Sprintf("%s forwarding magnitude (Fig 10)", victim), fm, 6))
	}

	// Forwarding anomalies during the loss hour cover the delay detector's
	// blind spot (Fig 11b's complementarity).
	fwdInWindow := 0
	for _, al := range analyzer.ForwardingAlarms() {
		if !al.Bin.Before(win[0]) && al.Bin.Before(win[1]) {
			fwdInWindow++
		}
	}
	fmt.Printf("forwarding anomalies during the leak window: %d\n", fwdInWindow)
}

// lookupBoth maps both link endpoints to ASes, de-duplicated — the same
// multi-AS assignment rule §6 uses.
func lookupBoth(c *experiments.Case, al pinpoint.DelayAlarm) []ipmap.ASN {
	var out []ipmap.ASN
	if asn, ok := c.Net.Prefixes().Lookup(al.Link.Near); ok {
		out = append(out, asn)
	}
	if asn, ok := c.Net.Prefixes().Lookup(al.Link.Far); ok && (len(out) == 0 || out[0] != asn) {
		out = append(out, asn)
	}
	return out
}
