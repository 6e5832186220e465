// Package experiments contains the case catalogue (case.go) and one
// harness per table and figure of the paper's evaluation (Registry is the
// index). Each harness builds its workload, runs the detection pipeline,
// prints the rows/series the paper's artifact shows, and checks the paper's
// qualitative claims — who wins, what peaks where, which shapes hold.
// Absolute values from the paper's 2.8-billion-traceroute dataset are
// reported side by side with the scaled measurement, never asserted as
// equal.
package experiments

import (
	"flag"
	"fmt"
	"sort"
	"strings"
)

// Scale selects the workload size.
type Scale int

// Scales. Quick keeps harnesses fast enough for the test suite; Full is the
// benchmark/report scale.
const (
	Quick Scale = iota
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == Quick {
		return "quick"
	}
	return "full"
}

// ParseScale resolves a scale name ("quick" or "full") — the single parser
// behind every CLI's -scale flag.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return Quick, fmt.Errorf("experiments: unknown scale %q (valid: quick, full)", name)
	}
}

// CheckWorkerFlags refuses a negative value of any worker-count flag fs
// defines (-workers, -gen-workers, -decode-workers): every CLI calls it
// right after parsing, before any work starts. A negative count used to
// mean all CPUs, one inline shard or core.AutoWorkers depending on where it
// landed; 0 keeps its documented meaning in every command.
func CheckWorkerFlags(fs *flag.FlagSet) error {
	for _, name := range []string{"workers", "gen-workers", "decode-workers"} {
		if f := fs.Lookup(name); f != nil {
			if n, _ := f.Value.(flag.Getter).Get().(int); n < 0 {
				return fmt.Errorf("-%s %d: a worker count cannot be negative (0 = the default)", name, n)
			}
		}
	}
	return nil
}

// Claim is one paper statement checked against the reproduction.
type Claim struct {
	Name     string
	Paper    string // what the paper reports
	Measured string // what this run measured
	Holds    bool   // does the qualitative claim hold?
}

// Report is the output of one experiment harness.
type Report struct {
	ID      string // Registry id, e.g. "F2"
	Title   string
	Scale   Scale
	Text    string             // human-readable rendering (tables, plots)
	Metrics map[string]float64 // machine-readable numbers
	Claims  []Claim
}

// Failed returns the claims that did not hold.
func (r *Report) Failed() []Claim {
	var out []Claim
	for _, c := range r.Claims {
		if !c.Holds {
			out = append(out, c)
		}
	}
	return out
}

// Render returns the full textual report including the claim table.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s [%s scale] ==\n\n", r.ID, r.Title, r.Scale)
	sb.WriteString(r.Text)
	if len(r.Claims) > 0 {
		sb.WriteString("\nClaims (paper vs measured):\n")
		for _, c := range r.Claims {
			status := "OK "
			if !c.Holds {
				status = "FAIL"
			}
			fmt.Fprintf(&sb, "  [%s] %-38s paper: %-34s measured: %s\n", status, c.Name, c.Paper, c.Measured)
		}
	}
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString("\nMetrics:\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "  %-40s %g\n", k, r.Metrics[k])
		}
	}
	return sb.String()
}

// Experiment is a registered harness.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) (*Report, error)
}

// Registry lists every experiment in paper order: figures, tables, then
// ablations.
var Registry = []Experiment{
	{ID: "F2", Title: "Fig 2: median differential RTT stability", Run: Fig02MedianStability},
	{ID: "F3", Title: "Fig 3: normality of median vs mean differential RTT", Run: Fig03Normality},
	{ID: "F4", Title: "Fig 4 / §5.2.2: forwarding worked example", Run: Fig04ForwardingExample},
	{ID: "F5", Title: "Fig 5a+5b: magnitude distributions over all ASes", Run: Fig05MagnitudeDistributions},
	{ID: "F6", Title: "Fig 6: DDoS peaks in root-operator delay magnitude", Run: Fig06KrootMagnitude},
	{ID: "F7", Title: "Fig 7: per-link delays during the DDoS", Run: Fig07PerLinkDelays},
	{ID: "F8", Title: "Fig 8: alarm graph around the root server", Run: Fig08AlarmGraph},
	{ID: "F9", Title: "Fig 9: route-leak delay magnitude (victim ASes)", Run: Fig09LeakDelayMagnitude},
	{ID: "F10", Title: "Fig 10: route-leak forwarding magnitude", Run: Fig10LeakForwardingMagnitude},
	{ID: "F11", Title: "Fig 11: route-leak per-link complementarity", Run: Fig11LeakLinks},
	{ID: "F12", Title: "Fig 12: route-leak alarm graph (victim component)", Run: Fig12LeakGraph},
	{ID: "F13", Title: "Fig 13: IXP outage forwarding anomaly", Run: Fig13IXPOutage},
	{ID: "T1", Title: "§7 aggregate statistics", Run: Tab01AggregateStats},
	{ID: "T2", Title: "Appendix B: detection limits", Run: Tab02DetectionLimits},
	{ID: "A1", Title: "Ablation: median-CLT vs mean-CLT", Run: Abl01MedianVsMean},
	{ID: "A2", Title: "Ablation: probe-diversity filter", Run: Abl02DiversityFilter},
	{ID: "A3", Title: "Ablation: AS-level responsibility cancellation", Run: Abl03ASCancellation},
}

// ByID returns the registered experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
