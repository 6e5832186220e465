package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

// Case is a ready-to-run measurement campaign over one of the scenarios:
// the quiet baseline, one of the paper's three case studies, or one of the
// adversity-suite disruptions. cmd/atlasgen dumps cases to JSONL, cmd/ihr
// streams them, and the examples run them directly.
type Case struct {
	Name        string
	Description string
	Platform    *atlas.Platform
	Topo        *netsim.Topo
	Net         *netsim.Net
	Start, End  time.Time

	// EventWindows are the injected disruption intervals (ground truth).
	EventWindows [][2]time.Time

	roles caseRoles
}

// caseRoles names the actors the figure harnesses read, chosen when the
// case is planned against quiet routing.
type caseRoles struct {
	both, firstOnly, spared, upstream trace.LinkKey // ddos: Fig 7a, 7c, 7b, 7e
	victims                           [2]ipmap.ASN  // leak: the paper's AS3549 and AS3356 (Figs 9, 10)
	linkA, linkB                      trace.LinkKey // leak: Fig 11a, 11b
}

// caseSpec is one catalogue row: everything that tells one scenario from
// another. build is the only way a row becomes a Case.
type caseSpec struct {
	name, description string
	seed              uint64         // topology and platform seed
	history           time.Time      // run start at Full scale
	windows           [][2]time.Time // ground truth; Quick runs start two days before the first
	end, fullEnd      time.Time      // run end; fullEnd, when set, replaces it at Full scale
	planQuiet         bool           // plan reads the event-free network's routing
	// plan returns the scenario's events and roles; nil means no events.
	plan func(topo *netsim.Topo, quiet *netsim.Net, scale Scale) ([]netsim.Event, caseRoles, error)
}

// catalogue lists every case NewCase builds, in CaseNames order.
var catalogue = []caseSpec{
	{
		name: "quiet", description: "healthy network, no injected events", seed: 42,
		history: baselineStart, end: baselineStart.Add(72 * time.Hour), fullEnd: baselineStart.Add(10 * 24 * time.Hour),
	},
	{
		name: "ddos", description: "§7.1: DDoS against anycast root servers (two attack windows)", seed: 20151130,
		history: ddosHistoryStart, end: ddosEnd,
		windows:   [][2]time.Time{{ddosAttack1Start, ddosAttack1End}, {ddosAttack2Start, ddosAttack2End}},
		planQuiet: true, plan: planDDoSCase,
	},
	{
		name: "leak", description: "§7.2: BGP route leak congesting two transit backbones", seed: 20150612,
		history: leakHistoryStart, end: leakRunEnd, windows: [][2]time.Time{{leakStart, leakEnd}},
		planQuiet: true, plan: planLeakCase,
	},
	{
		name: "ixp", description: "§7.3: exchange-point peering LAN outage (loss only, no delay signal)", seed: 20150513,
		history: ixpHistoryStart, end: ixpRunEnd, windows: [][2]time.Time{{ixpOutageStart, ixpOutageEnd}},
		plan: planIXPCase,
	},
	{
		name: "anycast", description: "anycast catchment shift: two root instances withdrawn, their probes drain elsewhere", seed: 20150901,
		history: anycastHistoryStart, end: anycastRunEnd, windows: [][2]time.Time{{anycastShiftStart, anycastShiftEnd}},
		planQuiet: true, plan: planAnycastCase,
	},
	{
		name: "ixpfail", description: "IXP failover: peering LAN down, member traffic reroutes through transit", seed: 20150715,
		history: ixpfailHistoryStart, end: ixpfailRunEnd, windows: [][2]time.Time{{ixpfailStart, ixpfailEnd}},
		plan: planIXPFailCase,
	},
	{
		name: "fiber", description: "partial fiber degradation: one backbone direction degraded, return paths healthy", seed: 20151020,
		history: fiberHistoryStart, end: fiberRunEnd, windows: [][2]time.Time{{fiberStart, fiberEnd}},
		planQuiet: true, plan: planFiberCase,
	},
}

// CaseNames lists the valid case names for NewCase. CLI -case flags derive
// their usage strings from this list, so new cases show up in -h
// automatically.
var CaseNames = func() []string {
	names := make([]string, len(catalogue))
	for i, row := range catalogue {
		names[i] = row.name
	}
	return names
}()

// caseRow returns the catalogue row of the named case, or nil.
func caseRow(name string) *caseSpec {
	for i := range catalogue {
		if catalogue[i].name == name {
			return &catalogue[i]
		}
	}
	return nil
}

// NewCase builds the named scenario at the given scale, artifact-free.
func NewCase(name string, scale Scale) (*Case, error) {
	return NewCaseArtifacts(name, scale, netsim.Artifacts{})
}

// NewCaseArtifacts builds the named scenario with the given
// measurement-artifact mix baked into the network. The zero Artifacts value
// reproduces NewCase exactly, byte for byte. Scenario planning (DDoS
// catchments, leak victim ranking, the fiber link census) always runs
// against the clean quiet network — artifacts corrupt measurements, not the
// ground truth.
func NewCaseArtifacts(name string, scale Scale, art netsim.Artifacts) (*Case, error) {
	row := caseRow(name)
	if row == nil {
		return nil, fmt.Errorf("experiments: unknown case %q (valid: %v)", name, CaseNames)
	}
	return row.build(scale, art)
}

// build generates the row's topology, plans its events (against the quiet
// network when the plan reads routing), bakes in the artifact mix and
// attaches the measurement platform.
func (row *caseSpec) build(scale Scale, art netsim.Artifacts) (*Case, error) {
	topo, err := netsim.Generate(caseTopoConfig(scale, row.seed))
	if err != nil {
		return nil, err
	}
	var quiet *netsim.Net
	if row.planQuiet {
		if quiet, err = topo.Build(nil); err != nil {
			return nil, err
		}
	}
	c := &Case{
		Name: row.name, Description: row.description, Topo: topo,
		Start: row.history, End: row.end, EventWindows: slices.Clone(row.windows),
	}
	if scale == Quick && len(row.windows) > 0 {
		// A shorter history keeps the test suite fast; the magnitude window
		// clamps accordingly.
		c.Start = row.windows[0][0].Add(-48 * time.Hour).Truncate(24 * time.Hour)
	}
	if scale == Full && !row.fullEnd.IsZero() {
		c.End = row.fullEnd
	}
	var scenario *netsim.Scenario
	if row.plan != nil {
		evs, roles, err := row.plan(topo, quiet, scale)
		if err != nil {
			return nil, err
		}
		scenario, c.roles = netsim.NewScenario(evs...), roles
	}
	topo.Builder.SetArtifacts(art)
	if c.Net, err = topo.Build(scenario); err != nil {
		return nil, err
	}
	c.Platform = newCasePlatform(c.Net, topo, row.seed)
	return c, nil
}

// newCasePlatform attaches probes to all stub sites and registers builtin
// measurements toward every root plus anchoring measurements toward every
// anchor (10 probes per anchor, mirroring the paper's probe/anchor ratio).
func newCasePlatform(n *netsim.Net, topo *netsim.Topo, seed uint64) *atlas.Platform {
	p := atlas.NewPlatform(n, seed, netsim.TracerouteOpts{})
	probes := p.AddProbes(topo.ProbeSites())
	for _, rt := range topo.Roots {
		p.AddBuiltin(rt.Addr)
	}
	for i, an := range topo.Anchors {
		var ids []int
		for j := 0; j < 10 && j < len(probes); j++ {
			ids = append(ids, probes[(i*7+j)%len(probes)].ID)
		}
		p.AddAnchoring(an.Addr, ids)
	}
	return p
}

// warmup is the first stretch of every case run that no figure and no score
// reads: magnitudes over a nearly-empty window are noise in every
// configuration, and no case schedules its disruption that early
// (TestNewCaseAllNames holds every catalogue row to it).
const warmup = 24 * time.Hour

// inWindow reports whether t lies in the half-open window [w[0], w[1]).
func inWindow(w [2]time.Time, t time.Time) bool {
	return !t.Before(w[0]) && t.Before(w[1])
}

// extremes returns the largest (sign +1) or smallest (sign −1) value of pts
// inside each window and outside all of them, each starting from 0.
func extremes(pts []timeseries.Point, windows [][2]time.Time, sign float64) (in []float64, out float64) {
	in = make([]float64, len(windows))
	for _, p := range pts {
		ext := &out
		for i, w := range windows {
			if inWindow(w, p.T) {
				ext = &in[i]
				break
			}
		}
		if sign*p.V > sign*(*ext) {
			*ext = p.V
		}
	}
	return in, out
}

// caseRun is one case analyzed over its whole run, as the figure harnesses
// read it: the case, its analyzer with every alarm retained, and the state
// the run's delay observer filled.
type caseRun[T any] struct {
	*Case
	a     *core.Analyzer
	state T
}

// runs memoizes caseRuns by (case, scale): every harness of a case reads
// the one run.
var runs = struct {
	sync.Mutex
	m map[runKey]any
}{m: map[runKey]any{}}

type runKey struct {
	name  string
	scale Scale
}

// runCase builds row at scale and analyzes it once per process. watch, when
// non-nil, returns the delay observer that fills the run's state.
func runCase[T any](row *caseSpec, scale Scale, watch func(*Case, *T) func(delay.Observation)) (*caseRun[T], error) {
	runs.Lock()
	defer runs.Unlock()
	key := runKey{row.name, scale}
	if r, ok := runs.m[key]; ok {
		return r.(*caseRun[T]), nil
	}
	c, err := row.build(scale, netsim.Artifacts{})
	if err != nil {
		return nil, err
	}
	r := &caseRun[T]{Case: c}
	cfg := core.Config{RetainAlarms: true}
	if watch != nil {
		cfg.Delay.Observer = watch(c, &r.state)
	}
	if r.a, err = analyze(c, cfg); err != nil {
		return nil, err
	}
	runs.m[key] = r
	return r, nil
}

// analyze runs c's whole campaign through one analyzer configured by cfg:
// the generate→analyze step of every harness.
func analyze(c *Case, cfg core.Config) (*core.Analyzer, error) {
	a := core.New(cfg, c.Platform.ProbeASN, c.Net.Prefixes())
	if err := a.RunPlatform(context.Background(), c.Platform, c.Start, c.End); err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// magnitude returns asn's Eq. 10 delay or forwarding magnitude series over
// the run past its warm-up.
func (r *caseRun[T]) magnitude(asn ipmap.ASN, kind events.Type) []timeseries.Point {
	agg := r.a.Aggregator()
	if kind == events.ForwardingAnomaly {
		return agg.ForwardingMagnitude(asn, r.Start.Add(warmup), r.End)
	}
	return agg.DelayMagnitude(asn, r.Start.Add(warmup), r.End)
}

// roleObs holds every delay observation of a case's role links, keyed by
// link in both directions.
type roleObs map[trace.LinkKey][]delay.Observation

// watchRoles is the runCase observer of the ddos and leak figures.
func watchRoles(c *Case, obs *roleObs) func(delay.Observation) {
	*obs = roleObs{}
	r := c.roles
	tracked := map[trace.LinkKey]bool{}
	for _, k := range []trace.LinkKey{r.both, r.firstOnly, r.spared, r.upstream, r.linkA, r.linkB} {
		if k.Near.IsValid() {
			tracked[k], tracked[k.Reverse()] = true, true
		}
	}
	return func(o delay.Observation) {
		if tracked[o.Link] {
			(*obs)[o.Link] = append((*obs)[o.Link], o)
		}
	}
}
