package experiments

import (
	"fmt"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/events"
	"pinpoint/internal/netsim"
)

// Robustness harness: run every case under every measurement-artifact mix
// and score the events the analyzer detected against the ground-truth
// EventWindows — the precision/recall evidence behind BENCH_robust.json.

// ArtifactMix is one named artifact configuration of the robustness grid.
type ArtifactMix struct {
	Name string           `json:"name"`
	Art  netsim.Artifacts `json:"artifacts"`
}

// ArtifactMixes returns the standard grid: the artifact-free baseline, two
// single-family mixes, and the everything-at-once storm.
func ArtifactMixes() []ArtifactMix {
	return []ArtifactMix{
		{Name: "clean", Art: netsim.Artifacts{}},
		{Name: "multipath", Art: netsim.Artifacts{MultipathProb: 0.2, ReorderProb: 0.02}},
		{Name: "lying", Art: netsim.Artifacts{LyingHopProb: 0.04, AliasProb: 0.25}},
		{Name: "storm", Art: netsim.Artifacts{
			MultipathProb: 0.25, RouteFlipProb: 0.1, ReorderProb: 0.03,
			LyingHopProb: 0.04, AliasProb: 0.3,
		}},
	}
}

// RobustScore is an event-level precision/recall scoring of one run against
// the case's ground-truth windows.
type RobustScore struct {
	Events     int     `json:"events"`
	TruePos    int     `json:"true_pos"`    // event bins inside a window (± slack)
	FalsePos   int     `json:"false_pos"`   // event bins outside every window
	Windows    int     `json:"windows"`     // ground-truth window count
	WindowsHit int     `json:"windows_hit"` // windows with ≥ 1 event inside
	Precision  float64 `json:"precision"`   // TruePos / Events (1 when no events)
	Recall     float64 `json:"recall"`      // WindowsHit / Windows (1 when no windows)
}

// RobustCell is one (case, mix) measurement.
type RobustCell struct {
	Case        string      `json:"case"`
	Mix         string      `json:"mix"`
	Results     int         `json:"results"`
	DelayAlarms int         `json:"delay_alarms"`
	FwdAlarms   int         `json:"fwd_alarms"`
	Base        RobustScore `json:"base"`
}

// RobustSummary aggregates the grid: true positives and windows hit on
// clean runs, false positives on artifact-laden runs.
type RobustSummary struct {
	CleanTruePosBase    int `json:"clean_true_pos_base"`
	CleanWindowsHitBase int `json:"clean_windows_hit_base"`
	ArtFalsePosBase     int `json:"artifact_false_pos_base"`
}

// RobustReport is the BENCH_robust.json payload.
type RobustReport struct {
	Scale       string        `json:"scale"`
	Threshold   float64       `json:"threshold"`
	WindowHours float64       `json:"window_hours"`
	SlackBins   int           `json:"slack_bins"`
	Workers     int           `json:"workers"`
	WarmupHours float64       `json:"warmup_hours"`
	Mixes       []ArtifactMix `json:"mixes"`
	Cells       []RobustCell  `json:"cells"`
	Summary     RobustSummary `json:"summary"`
}

// slackBins is the event-to-window matching slack: detector output lands on
// bin edges, so a disruption ending mid-bin legitimately scores in the
// closing bin.
const slackBins = 1

// RobustConfig parameterizes RunRobustness. The zero value takes the
// defaults noted per field.
type RobustConfig struct {
	Cases   []string // default: all of CaseNames
	Workers int      // platform + analyzer workers; default 2

	// mixes, when set, replaces ArtifactMixes(): tests run smaller grids.
	mixes []ArtifactMix
}

func (c RobustConfig) withDefaults() RobustConfig {
	if len(c.Cases) == 0 {
		c.Cases = CaseNames
	}
	if len(c.mixes) == 0 {
		c.mixes = ArtifactMixes()
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	return c
}

// robustEventsConfig mirrors the golden-test detection parameters: at Quick
// scale the shortened history needs the 24 h magnitude window and the lower
// threshold; Full scale runs the paper's defaults.
func robustEventsConfig(scale Scale) events.Config {
	if scale == Quick {
		return events.Config{Threshold: 3, Window: 24 * time.Hour}
	}
	return events.Config{}
}

// RunRobustness runs the full grid and assembles the report.
func RunRobustness(scale Scale, cfg RobustConfig) (*RobustReport, error) {
	cfg = cfg.withDefaults()
	evCfg := robustEventsConfig(scale)
	rep := &RobustReport{
		Scale:       scale.String(),
		SlackBins:   slackBins,
		Workers:     cfg.Workers,
		WarmupHours: warmup.Hours(),
		Mixes:       cfg.mixes,
	}
	for _, name := range cfg.Cases {
		for _, mix := range cfg.mixes {
			cell, used, err := runRobustCell(scale, name, mix, cfg, evCfg)
			if err != nil {
				return nil, fmt.Errorf("case %s mix %s: %w", name, mix.Name, err)
			}
			rep.Threshold, rep.WindowHours = used.Threshold, used.Window.Hours()
			rep.Cells = append(rep.Cells, *cell)
			if mix.Name == "clean" || !mix.Art.Enabled() {
				rep.Summary.CleanTruePosBase += cell.Base.TruePos
				rep.Summary.CleanWindowsHitBase += cell.Base.WindowsHit
			} else {
				rep.Summary.ArtFalsePosBase += cell.Base.FalsePos
			}
		}
	}
	return rep, nil
}

// runRobustCell runs one (case, mix): generate + analyze once, then score
// the events the analyzer's own aggregator detected. It also returns the
// event configuration that aggregator ran, defaults applied.
func runRobustCell(scale Scale, name string, mix ArtifactMix, cfg RobustConfig, evCfg events.Config) (*RobustCell, events.Config, error) {
	c, err := NewCaseArtifacts(name, scale, mix.Art)
	if err != nil {
		return nil, events.Config{}, err
	}
	c.Platform.SetWorkers(cfg.Workers)
	a, err := analyze(c, core.Config{RetainAlarms: true, Workers: cfg.Workers, Events: evCfg})
	if err != nil {
		return nil, events.Config{}, err
	}
	defer a.Close()
	return &RobustCell{
		Case: name, Mix: mix.Name,
		Results: a.Results(), DelayAlarms: len(a.DelayAlarms()), FwdAlarms: len(a.ForwardingAlarms()),
		Base: scoreEvents(c, a),
	}, a.Aggregator().Config(), nil
}

// scoreEvents scores the events of the analyzer's aggregator — closed at
// every bin close, so already evaluated — against the case's ground-truth
// windows.
func scoreEvents(c *Case, a *core.Analyzer) RobustScore {
	agg := a.Aggregator()
	binSize := agg.Config().BinSize
	evs := agg.Events(c.Start.Add(warmup), c.End.Add(binSize))
	return scoreAgainstWindows(evs, c.EventWindows, binSize)
}

// scoreAgainstWindows computes the precision/recall cell from detected
// events and ground-truth windows, with slackBins bins of slack around each
// window.
func scoreAgainstWindows(evs []events.Event, windows [][2]time.Time, binSize time.Duration) RobustScore {
	slack := time.Duration(slackBins) * binSize
	s := RobustScore{Events: len(evs), Windows: len(windows)}
	hit := make([]bool, len(windows))
	for _, ev := range evs {
		in := false
		for wi, w := range windows {
			if inWindow([2]time.Time{w[0].Add(-slack), w[1].Add(slack)}, ev.Bin) {
				in = true
				hit[wi] = true
			}
		}
		if in {
			s.TruePos++
		} else {
			s.FalsePos++
		}
	}
	for _, h := range hit {
		if h {
			s.WindowsHit++
		}
	}
	s.Precision = 1
	if s.Events > 0 {
		s.Precision = float64(s.TruePos) / float64(s.Events)
	}
	s.Recall = 1
	if s.Windows > 0 {
		s.Recall = float64(s.WindowsHit) / float64(s.Windows)
	}
	return s
}
