// DDoS on the DNS root servers (the paper's §7.1 case study, analog of
// Nov 30 / Dec 1 2015): anycast root instances are congested in two attack
// windows; the pipeline localizes which instances suffered, which were
// spared by anycast, and how far upstream the damage reached.
//
//	go run ./examples/ddos_rootservers
package main

import (
	"fmt"
	"log"
	"maps"
	"net/netip"
	"os"
	"slices"
	"time"

	"pinpoint"
	"pinpoint/internal/experiments"
	"pinpoint/internal/report"
)

func main() {
	log.SetFlags(0)

	c, err := experiments.NewCase("ddos", experiments.Quick)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Description)
	for _, w := range c.EventWindows {
		fmt.Printf("attack window: %s .. %s\n", w[0].Format("Jan 2 15:04"), w[1].Format("Jan 2 15:04"))
	}
	fmt.Println()

	analyzer := pinpoint.New(pinpoint.Config{RetainAlarms: true},
		c.Platform.ProbeASN, c.Net.Prefixes())
	if err := c.Platform.Run(c.Start, c.End, func(r pinpoint.Result) error {
		analyzer.Observe(r)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	analyzer.Flush()

	root := c.Topo.Roots[0]
	fmt.Printf("root service %s (operator %s), %d anycast instances\n",
		root.Addr, root.ASN, len(root.Instances))

	// Fig 6: the operator AS magnitude reveals both attacks.
	mags := analyzer.Aggregator().DelayMagnitude(root.ASN, c.Start.Add(24*time.Hour), c.End)
	fmt.Println(report.TimeSeries(fmt.Sprintf("%s delay change magnitude (Fig 6)", root.ASN), mags, 8))

	// Fig 7: which last-hop links (instance) alarmed, per attack window.
	perLink := map[string][2]int{}
	for _, al := range analyzer.DelayAlarms() {
		if al.Link.Far != root.Addr && al.Link.Near != root.Addr {
			continue
		}
		k := al.Link.String()
		c0 := perLink[k]
		if !al.Bin.Before(c.EventWindows[0][0]) && al.Bin.Before(c.EventWindows[0][1]) {
			c0[0]++
		}
		if !al.Bin.Before(c.EventWindows[1][0]) && al.Bin.Before(c.EventWindows[1][1]) {
			c0[1]++
		}
		perLink[k] = c0
	}
	rows := [][]string{{"last-hop link to root", "alarms attack 1", "alarms attack 2"}}
	for _, k := range slices.Sorted(maps.Keys(perLink)) {
		v := perLink[k]
		rows = append(rows, []string{k, fmt.Sprintf("%d", v[0]), fmt.Sprintf("%d", v[1])})
	}
	fmt.Println(report.Table(rows))

	// Fig 8: the alarm graph component around the root at the first peak.
	g := analyzer.Graph(c.EventWindows[0][0], c.EventWindows[0][1])
	nodes := g.ComponentNodes(root.Addr)
	fmt.Printf("alarm-graph component around %s during attack 1: %d addresses (DOT below)\n\n",
		root.Addr, len(nodes))
	anycast := map[netip.Addr]bool{}
	for _, rt := range c.Topo.Roots {
		anycast[rt.Addr] = true
	}
	if err := g.WriteDOT(os.Stdout, root.Addr, anycast); err != nil {
		log.Fatal(err)
	}
}
