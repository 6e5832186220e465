package experiments

import (
	"fmt"
	"strings"
	"time"

	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/netsim"
	"pinpoint/internal/report"
	"pinpoint/internal/trace"
)

// planDDoSCase plans the §7.1 attack against quiet routing (see planDDoS
// and ddosScenario) and names the Fig 7 links.
func planDDoSCase(topo *netsim.Topo, quiet *netsim.Net, _ Scale) ([]netsim.Event, caseRoles, error) {
	plan := planDDoS(quiet, topo, ddosHistoryStart)
	root := topo.Roots[0]
	instance := func(i int) trace.LinkKey {
		return trace.LinkKey{Near: quiet.Router(root.Sites[i]).Addr, Far: root.Addr}
	}
	roles := caseRoles{both: instance(plan.both), firstOnly: instance(plan.firstOnly), spared: instance(plan.spared)}
	if plan.haveUpstream {
		roles.upstream = addrLink(quiet, plan.upstream)
	}
	return ddosScenario(topo, plan), roles, nil
}

// runDDoS is the §7.1 run shared by F6–F8 and the Fig 8 graph.
func runDDoS(scale Scale) (*caseRun[roleObs], error) {
	return runCase(caseRow("ddos"), scale, watchRoles)
}

// Fig06KrootMagnitude regenerates Fig 6: the delay-change magnitude of the
// root operator's AS over the attack week shows two prominent peaks at
// exactly the two documented attack windows.
func Fig06KrootMagnitude(scale Scale) (*Report, error) {
	d, err := runDDoS(scale)
	if err != nil {
		return nil, err
	}
	root := d.Topo.Roots[0]
	mags := d.magnitude(root.ASN, events.DelayChange)
	in, peakOut := extremes(mags, d.EventWindows, +1)
	peak1, peak2 := in[0], in[1]

	var sb strings.Builder
	sb.WriteString(report.TimeSeries(
		fmt.Sprintf("%s (%s) delay change magnitude", root.ASN, "root operator"), mags, 8))
	sb.WriteString("\n")
	sb.WriteString(report.Table([][]string{
		{"window", "max magnitude"},
		{"attack 1 (Nov 30 07:00–09:30)", fmt.Sprintf("%.1f", peak1)},
		{"attack 2 (Dec 1 05:00–06:00)", fmt.Sprintf("%.1f", peak2)},
		{"outside attacks", fmt.Sprintf("%.1f", peakOut)},
	}))

	r := &Report{
		ID: "F6", Title: "DDoS peaks in root-operator delay magnitude", Scale: scale,
		Text: sb.String(),
		Metrics: map[string]float64{
			"peak_attack1": peak1, "peak_attack2": peak2, "peak_outside": peakOut,
		},
	}
	r.Claims = []Claim{
		{
			Name:     "both attacks produce magnitude peaks",
			Paper:    "two peaks of unprecedented level (Fig 6)",
			Measured: fmt.Sprintf("peak1=%.0f, peak2=%.0f", peak1, peak2),
			Holds:    peak1 > 10 && peak2 > 10,
		},
		{
			Name:     "peaks dominate the quiet baseline",
			Paper:    "peaks dwarf surrounding weeks",
			Measured: fmt.Sprintf("outside max %.1f", peakOut),
			Holds:    peak1 > 3*max(peakOut, 1) && peak2 > 3*max(peakOut, 1),
		},
	}
	return r, nil
}

// Fig07PerLinkDelays regenerates Fig 7: per-link median differential RTT
// panels around the attacks — instances hit by both attacks, by only the
// first, an unaffected anycast instance, and an upstream link.
func Fig07PerLinkDelays(scale Scale) (*Report, error) {
	d, err := runDDoS(scale)
	if err != nil {
		return nil, err
	}

	type role struct {
		name string
		key  trace.LinkKey
	}
	roles := []role{
		{"hit by both attacks (Fig 7a)", d.roles.both},
		{"hit by first attack only (Fig 7c)", d.roles.firstOnly},
		{"spared instance (Fig 7b)", d.roles.spared},
		{"upstream of attacked site (Fig 7e)", d.roles.upstream},
	}

	alarmsIn := func(obs []delay.Observation, w [2]time.Time) int {
		n := 0
		for _, o := range obs {
			if o.Anomalous && inWindow(w, o.Bin) {
				n++
			}
		}
		return n
	}

	var sb strings.Builder
	rows := [][]string{{"link role", "bins", "alarms attack1", "alarms attack2", "alarms quiet"}}
	counts := map[string][3]int{}
	for _, rl := range roles {
		obs := d.state[rl.key]
		a1 := alarmsIn(obs, d.EventWindows[0])
		a2 := alarmsIn(obs, d.EventWindows[1])
		tot := 0
		for _, o := range obs {
			if o.Anomalous {
				tot++
			}
		}
		quiet := tot - a1 - a2
		counts[rl.name] = [3]int{a1, a2, quiet}
		rows = append(rows, []string{
			rl.name, fmt.Sprintf("%d", len(obs)),
			fmt.Sprintf("%d", a1), fmt.Sprintf("%d", a2), fmt.Sprintf("%d", quiet),
		})
		var meds []float64
		for _, o := range obs {
			meds = append(meds, o.Observed.Median)
		}
		fmt.Fprintf(&sb, "%-36s %s\n", rl.name, report.Sparkline(meds))
	}
	sb.WriteString("\n")
	sb.WriteString(report.Table(rows))

	both := counts[roles[0].name]
	firstOnly := counts[roles[1].name]
	spared := counts[roles[2].name]
	upstream := counts[roles[3].name]

	r := &Report{
		ID: "F7", Title: "Per-link delays during the DDoS", Scale: scale,
		Text: sb.String(),
		Metrics: map[string]float64{
			"both_a1": float64(both[0]), "both_a2": float64(both[1]),
			"firstonly_a1": float64(firstOnly[0]), "firstonly_a2": float64(firstOnly[1]),
			"spared_alarms": float64(spared[0] + spared[1] + spared[2]),
			"upstream_a1":   float64(upstream[0]),
		},
	}
	r.Claims = []Claim{
		{
			Name:     "instance hit by both attacks alarms in both",
			Paper:    "Kansas City instance reported in both windows (7a)",
			Measured: fmt.Sprintf("attack1 %d, attack2 %d alarms", both[0], both[1]),
			Holds:    both[0] > 0 && both[1] > 0,
		},
		{
			Name:     "some instances hit by one attack only",
			Paper:    "instances impacted by only one attack (7c)",
			Measured: fmt.Sprintf("attack1 %d, attack2 %d alarms", firstOnly[0], firstOnly[1]),
			Holds:    firstOnly[0] > 0 && firstOnly[1] == 0,
		},
		{
			Name:     "anycast spares some instances",
			Paper:    "Poland instance perfectly stable (7b)",
			Measured: fmt.Sprintf("%d alarms in attack windows", spared[0]+spared[1]),
			Holds:    spared[0]+spared[1] == 0,
		},
		{
			Name:     "upstream links are also pinpointed",
			Paper:    "DE-CIX link upstream of Frankfurt instance (7e)",
			Measured: fmt.Sprintf("%d alarms during attack1", upstream[0]),
			Holds:    upstream[0] > 0,
		},
	}
	return r, nil
}

// Fig08AlarmGraph regenerates Fig 8: the connected component of delay
// alarms around the root server address at the attack peak, plus the count
// of root-related alarms over the attack (paper: 129 IPv4 alarms in 3 h).
func Fig08AlarmGraph(scale Scale) (*Report, error) {
	d, err := runDDoS(scale)
	if err != nil {
		return nil, err
	}
	root := d.Topo.Roots[0]
	attack1 := d.EventWindows[0]

	g := d.a.Graph(attack1[0], attack1[1])
	nodes := g.ComponentNodes(root.Addr)
	edges := g.Component(root.Addr)

	rootAlarms := 0
	for _, al := range d.a.DelayAlarms() {
		if !inWindow(attack1, al.Bin) {
			continue
		}
		for _, rt := range d.Topo.Roots {
			if al.Link.Near == rt.Addr || al.Link.Far == rt.Addr {
				rootAlarms++
				break
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Alarm graph over attack 1 (%s .. %s):\n",
		attack1[0].Format("Jan 2 15:04"), attack1[1].Format("15:04"))
	sb.WriteString(report.Table([][]string{
		{"quantity", "value", "paper"},
		{"component nodes around root", fmt.Sprintf("%d", len(nodes)), "dozens (Fig 8)"},
		{"component edges (alarms)", fmt.Sprintf("%d", len(edges)), "—"},
		{"total components", fmt.Sprintf("%d", g.Components()), "several (one per root family)"},
		{"alarms involving root addresses", fmt.Sprintf("%d", rootAlarms), "129 IPv4 (3 h, full Atlas scale)"},
	}))
	sb.WriteString("\n(graphviz output: cmd/experiments -dot writes the component as DOT)\n")

	r := &Report{
		ID: "F8", Title: "Alarm graph around the root server", Scale: scale,
		Text: sb.String(),
		Metrics: map[string]float64{
			"component_nodes": float64(len(nodes)),
			"component_edges": float64(len(edges)),
			"root_alarms":     float64(rootAlarms),
		},
	}
	r.Claims = []Claim{
		{
			Name:     "alarms form a connected component around the root",
			Paper:    "connected component of K-root alarms (Fig 8)",
			Measured: fmt.Sprintf("%d nodes, %d edges", len(nodes), len(edges)),
			Holds:    len(nodes) >= 3 && len(edges) >= 2,
		},
		{
			Name:     "multiple root-related alarms during the attack",
			Paper:    "129 root-server alarms in 3 h",
			Measured: fmt.Sprintf("%d (scaled platform)", rootAlarms),
			Holds:    rootAlarms >= 3,
		},
	}
	return r, nil
}
