package events

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"

	"pinpoint/internal/delay"
	"pinpoint/internal/forwarding"
)

// GraphEdge is one alarm drawn as an edge between two IP addresses, labeled
// with the absolute median shift (the edge labels of Fig 12).
type GraphEdge struct {
	A, B    netip.Addr
	ShiftMS float64
	Bin     time.Time
}

// AlarmGraph is the "nodes are IP addresses, edges are alarms" view the
// paper uses to show the topological extent of an event (Figs 8 and 12).
// Nodes touched by forwarding anomalies are flagged (the red nodes of
// Fig 12). Build it from alarms of one time window, then extract the
// connected component around an address of interest.
type AlarmGraph struct {
	edges  []GraphEdge
	parent map[netip.Addr]netip.Addr // union-find
	flag   map[netip.Addr]bool       // involved in forwarding anomalies
}

// NewAlarmGraph builds a graph from delay alarms, optionally flagging
// addresses reported by forwarding alarms in the same window.
func NewAlarmGraph(delayAlarms []delay.Alarm, fwdAlarms []forwarding.Alarm) *AlarmGraph {
	g := &AlarmGraph{
		parent: make(map[netip.Addr]netip.Addr),
		flag:   make(map[netip.Addr]bool),
	}
	for _, al := range delayAlarms {
		g.edges = append(g.edges, GraphEdge{
			A: al.Link.Near, B: al.Link.Far,
			ShiftMS: al.DiffMS, Bin: al.Bin,
		})
		g.union(al.Link.Near, al.Link.Far)
	}
	for _, al := range fwdAlarms {
		g.flag[al.Router] = true
		for _, h := range al.Hops {
			if h.Hop.IsValid() && h.Responsibility != 0 {
				g.flag[h.Hop] = true
			}
		}
	}
	return g
}

func (g *AlarmGraph) find(a netip.Addr) netip.Addr {
	if _, ok := g.parent[a]; !ok {
		g.parent[a] = a
	}
	for g.parent[a] != a {
		g.parent[a] = g.parent[g.parent[a]] // path halving
		a = g.parent[a]
	}
	return a
}

func (g *AlarmGraph) union(a, b netip.Addr) {
	ra, rb := g.find(a), g.find(b)
	if ra != rb {
		g.parent[ra] = rb
	}
}

// Nodes returns every address in the graph, sorted.
func (g *AlarmGraph) Nodes() []netip.Addr {
	seen := make(map[netip.Addr]struct{})
	for _, e := range g.edges {
		seen[e.A] = struct{}{}
		seen[e.B] = struct{}{}
	}
	out := make([]netip.Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Flagged reports whether the address was involved in a forwarding anomaly.
func (g *AlarmGraph) Flagged(a netip.Addr) bool { return g.flag[a] }

// Component returns the edges of the connected component containing addr —
// the "connected component of all alarms connected to the K-root server"
// construction of §7.1. The result is empty when the address appears in no
// alarm.
func (g *AlarmGraph) Component(addr netip.Addr) []GraphEdge {
	if _, ok := g.parent[addr]; !ok {
		return nil
	}
	root := g.find(addr)
	var out []GraphEdge
	for _, e := range g.edges {
		if g.find(e.A) == root {
			out = append(out, e)
		}
	}
	return out
}

// ComponentNodes returns the distinct addresses of the component containing
// addr, sorted.
func (g *AlarmGraph) ComponentNodes(addr netip.Addr) []netip.Addr {
	seen := make(map[netip.Addr]struct{})
	for _, e := range g.Component(addr) {
		seen[e.A] = struct{}{}
		seen[e.B] = struct{}{}
	}
	out := make([]netip.Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Components returns the number of connected components among nodes that
// appear in at least one edge.
func (g *AlarmGraph) Components() int {
	roots := make(map[netip.Addr]struct{})
	for _, n := range g.Nodes() {
		roots[g.find(n)] = struct{}{}
	}
	return len(roots)
}

// WriteDOT renders the component containing addr (or the whole graph when
// addr is the zero Addr) in Graphviz DOT format: rectangular nodes for
// anycast service addresses (several physical systems behind one address,
// as in Fig 8), red-filled nodes for forwarding-anomaly participants, edge
// labels with the median shift in milliseconds.
func (g *AlarmGraph) WriteDOT(w io.Writer, addr netip.Addr, anycast map[netip.Addr]bool) error {
	edges := g.edges
	if addr.IsValid() {
		edges = g.Component(addr)
	}
	if _, err := fmt.Fprintln(w, "graph alarms {"); err != nil {
		return err
	}
	seen := make(map[netip.Addr]struct{})
	node := func(a netip.Addr) error {
		if _, ok := seen[a]; ok {
			return nil
		}
		seen[a] = struct{}{}
		attrs := ""
		if anycast[a] {
			attrs = ` shape="box"`
		}
		if g.flag[a] {
			attrs += ` style="filled" fillcolor="red"`
		}
		_, err := fmt.Fprintf(w, "  %q [label=%q%s];\n", a, a, attrs)
		return err
	}
	for _, e := range edges {
		if err := node(e.A); err != nil {
			return err
		}
		if err := node(e.B); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %q -- %q [label=\"+%.0fms\"];\n", e.A, e.B, e.ShiftMS); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
