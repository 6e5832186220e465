package experiments

import (
	"fmt"
	"strings"
	"time"

	"pinpoint/internal/delay"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/report"
	"pinpoint/internal/stats"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

// campaign is the row of the run standing in for the paper's 8-month
// dataset: a multi-week measurement with a handful of injected disruptions
// of all three kinds, used by F5 and T1. It is not in the catalogue, so no
// CLI and no robustness cell runs it.
var campaign = caseSpec{
	name: "campaign", seed: 20150501,
	history: baselineStart, end: baselineStart.Add(5 * 24 * time.Hour), fullEnd: baselineStart.Add(18 * 24 * time.Hour),
	planQuiet: true, plan: planCampaign,
}

// planCampaign spreads a handful of disruptions across the campaign, one
// per family, planned against quiet routing so they land on traversed links.
func planCampaign(topo *netsim.Topo, quiet *netsim.Net, scale Scale) ([]netsim.Event, caseRoles, error) {
	start := baselineStart
	div := linkDiversity(quiet, topo.ProbeSites(), topo.Targets(), start)
	rank := rankTransitByDiversity(quiet, topo, div)
	link0, _ := bestIntraASLink(quiet, topo.Transit[rank[0]], div)
	link1, _ := bestIntraASLink(quiet, topo.Transit[rank[1]], div)
	plan := planDDoS(quiet, topo, start)

	day := func(d int, h int) time.Time { return start.Add(time.Duration(d*24+h) * time.Hour) }
	var evs []netsim.Event
	addCongestion := func(name string, from, to netsim.RouterID, d1, h1, hours int, ms float64) {
		evs = append(evs, netsim.Event{
			Name: name, Kind: netsim.EventCongestion, From: from, To: to, Both: true,
			ExtraDelayMS: ms, Loss: 0.05,
			Start: day(d1, h1), End: day(d1, h1+hours),
		})
	}
	ixpDark := func(d1, h1, hours int) {
		for _, iface := range topo.IXPs[0].Ifaces {
			evs = append(evs,
				netsim.Event{Name: "bh", Kind: netsim.EventBlackhole, Router: iface, Loss: 1,
					Start: day(d1, h1), End: day(d1, h1+hours)},
				netsim.Event{Name: "quiet", Kind: netsim.EventSilence, Router: iface,
					Start: day(d1, h1), End: day(d1, h1+hours)},
			)
		}
	}
	root := topo.Roots[0]
	if scale == Full {
		addCongestion("c1", link0.From, link0.To, 8, 13, 2, 120)
		addCongestion("c2", link1.From, link1.To, 12, 4, 3, 80)
		addCongestion("c3", root.Sites[plan.both], root.Instances[plan.both], 15, 7, 2, 60)
		ixpDark(10, 9, 3)
		tr := topo.Transit[rank[2]]
		evs = append(evs, netsim.Event{
			Name: "rr", Kind: netsim.EventReroute, From: tr.Border[0], To: tr.Routers[0],
			Both: true, WeightFactor: 10,
			Start: day(14, 2), End: day(14, 8),
		})
	} else {
		addCongestion("c1", link0.From, link0.To, 3, 13, 2, 120)
		ixpDark(4, 9, 2)
	}
	return evs, caseRoles{}, nil
}

// linkStats tallies the campaign's delay observations for T1.
type linkStats struct {
	evaluated map[trace.LinkKey]int // link → evaluated bins
	alarmed   map[trace.LinkKey]int
	probesSum int // Σ probes over evaluations (for the mean)
	evals     int
}

func runLong(scale Scale) (*caseRun[linkStats], error) {
	return runCase(&campaign, scale, func(_ *Case, st *linkStats) func(delay.Observation) {
		st.evaluated, st.alarmed = map[trace.LinkKey]int{}, map[trace.LinkKey]int{}
		return func(o delay.Observation) {
			st.evaluated[o.Link]++
			if o.Anomalous {
				st.alarmed[o.Link]++
			}
			st.probesSum += o.Probes
			st.evals++
		}
	})
}

// Fig05MagnitudeDistributions regenerates Fig 5: (a) the CCDF of hourly
// delay-change magnitudes over all ASes — overwhelmingly below 1, with a
// heavy right tail from real events — and (b) the CDF of forwarding
// magnitudes — a heavy left tail of significant anomalies.
func Fig05MagnitudeDistributions(scale Scale) (*Report, error) {
	d, err := runLong(scale)
	if err != nil {
		return nil, err
	}
	// The first bin with a full magnitude window behind it.
	analysis := d.Start.Add(48 * time.Hour)
	if scale == Full {
		analysis = d.Start.Add(7 * 24 * time.Hour)
	}
	// Pool hourly magnitudes over EVERY monitored AS, exactly as the paper
	// does over its 1060 ASes: quiet ASes contribute zero-magnitude hours,
	// which is what puts ~97% of the mass below 1 in Fig 5a.
	seen := map[ipmap.ASN]struct{}{}
	var delayMags, fwdMags []float64
	bins := int(d.End.Sub(analysis) / time.Hour)
	pool := func(dst []float64, mags []timeseries.Point) []float64 {
		if mags == nil {
			return append(dst, make([]float64, bins)...)
		}
		for _, pt := range mags {
			dst = append(dst, pt.V)
		}
		return dst
	}
	for _, e := range d.Net.Prefixes().Entries() {
		if _, dup := seen[e.ASN]; dup {
			continue
		}
		seen[e.ASN] = struct{}{}
		delayMags = pool(delayMags, d.a.Aggregator().DelayMagnitude(e.ASN, analysis, d.End))
		fwdMags = pool(fwdMags, d.a.Aggregator().ForwardingMagnitude(e.ASN, analysis, d.End))
	}

	below1 := stats.FractionBelow(delayMags, 1)
	maxMag := stats.Max(delayMags)
	minFwd := stats.Min(fwdMags)
	fwdBelowMinus10 := 0
	for _, v := range fwdMags {
		if v < -10 {
			fwdBelowMinus10++
		}
	}
	fwdFrac := float64(fwdBelowMinus10) / float64(len(fwdMags))

	var sb strings.Builder
	fmt.Fprintf(&sb, "Pooled hourly magnitudes over %d ASes (%d with alarms), %d delay points, %d forwarding points\n\n",
		len(seen), len(d.a.Aggregator().ASes()), len(delayMags), len(fwdMags))
	sb.WriteString(report.Histogram("Fig 5a analog: delay magnitude distribution", clampRange(delayMags, -5, 30), 12))
	sb.WriteString("\n")
	sb.WriteString(report.Histogram("Fig 5b analog: forwarding magnitude distribution", clampRange(fwdMags, -30, 5), 12))
	sb.WriteString("\n")
	sb.WriteString(report.Table([][]string{
		{"statistic", "measured", "paper"},
		{"P(delay mag < 1)", report.Percent(below1), "≈97%"},
		{"max delay magnitude", fmt.Sprintf("%.0f", maxMag), "heavy tail (top ≈ 3×10⁴)"},
		{"min forwarding magnitude", fmt.Sprintf("%.0f", minFwd), "heavy left tail"},
		{"P(fwd mag < −10)", report.Percent(fwdFrac), "≈0.001%"},
	}))

	r := &Report{
		ID: "F5", Title: "Magnitude distributions over all ASes", Scale: scale,
		Text: sb.String(),
		Metrics: map[string]float64{
			"delay_below_1": below1,
			"delay_max":     maxMag,
			"fwd_min":       minFwd,
			"fwd_below_-10": fwdFrac,
			"delay_points":  float64(len(delayMags)),
			"fwd_points":    float64(len(fwdMags)),
		},
	}
	r.Claims = []Claim{
		{
			Name:     "ASes are usually free of large delay changes",
			Paper:    "97% of hourly magnitudes < 1",
			Measured: report.Percent(below1),
			Holds:    below1 > 0.9,
		},
		{
			Name:     "heavy right tail from real events",
			Paper:    "CCDF tail reaches very large magnitudes",
			Measured: fmt.Sprintf("max %.0f", maxMag),
			Holds:    maxMag > 10,
		},
		{
			Name:     "forwarding anomalies have a heavy left tail",
			Paper:    "mag < −10 for only 0.001% of the time",
			Measured: fmt.Sprintf("%.3f%% below −10, min %.0f", fwdFrac*100, minFwd),
			Holds:    fwdFrac < 0.05 && minFwd < -1,
		},
	}
	return r, nil
}

// Tab01AggregateStats regenerates the §7 aggregate statistics paragraphs:
// links monitored, probes per link, links with at least one anomaly, router
// IPs with forwarding models and their mean next-hop count.
func Tab01AggregateStats(scale Scale) (*Report, error) {
	d, err := runLong(scale)
	if err != nil {
		return nil, err
	}
	linksSeen := d.a.LinksSeen()
	linksEval := len(d.state.evaluated)
	linksAlarmed := len(d.state.alarmed)
	alarmFrac := 0.0
	if linksEval > 0 {
		alarmFrac = float64(linksAlarmed) / float64(linksEval)
	}
	probesPerLink := 0.0
	if d.state.evals > 0 {
		probesPerLink = float64(d.state.probesSum) / float64(d.state.evals)
	}
	routers := d.a.RoutersSeen()
	avgHops := d.a.AvgNextHops()

	var sb strings.Builder
	sb.WriteString(report.Table([][]string{
		{"statistic", "measured (scaled)", "paper (8 months, full Atlas)"},
		{"links with ∆ samples", fmt.Sprintf("%d", linksSeen), "262k IPv4"},
		{"links passing diversity filter", fmt.Sprintf("%d", linksEval), "—"},
		{"mean probes per evaluated link", fmt.Sprintf("%.0f", probesPerLink), "147 IPv4"},
		{"links with ≥1 delay anomaly", fmt.Sprintf("%d (%s)", linksAlarmed, report.Percent(alarmFrac)), "33%"},
		{"router IPs with forwarding models", fmt.Sprintf("%d", routers), "170k IPv4"},
		{"mean next hops per model", fmt.Sprintf("%.1f", avgHops), "4"},
	}))

	r := &Report{
		ID: "T1", Title: "§7 aggregate statistics", Scale: scale,
		Text: sb.String(),
		Metrics: map[string]float64{
			"links_seen":      float64(linksSeen),
			"links_evaluated": float64(linksEval),
			"links_alarmed":   float64(linksAlarmed),
			"alarm_fraction":  alarmFrac,
			"probes_per_link": probesPerLink,
			"routers_modeled": float64(routers),
			"avg_next_hops":   avgHops,
		},
	}
	r.Claims = []Claim{
		{
			Name:     "diversity filter keeps a usable link population",
			Paper:    "262k links monitored",
			Measured: fmt.Sprintf("%d of %d links evaluated", linksEval, linksSeen),
			Holds:    linksEval > 0 && linksEval <= linksSeen,
		},
		{
			Name:     "a minority of links ever alarm",
			Paper:    "33% of links had ≥1 anomaly",
			Measured: report.Percent(alarmFrac),
			Holds:    alarmFrac < 0.6,
		},
		{
			Name:     "forwarding models stay small",
			Paper:    "4 next hops on average",
			Measured: fmt.Sprintf("%.1f", avgHops),
			Holds:    avgHops >= 1 && avgHops < 10,
		},
	}
	return r, nil
}

// clampRange keeps values within [lo, hi] for readable histograms.
func clampRange(xs []float64, lo, hi float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		out = append(out, x)
	}
	return out
}
