package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"pinpoint/internal/core"
	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

// stormMix is the everything-at-once artifact config used by the
// determinism tests: every injection family fires.
var stormMix = netsim.Artifacts{
	MultipathProb: 0.25, RouteFlipProb: 0.1, ReorderProb: 0.03,
	LyingHopProb: 0.04, AliasProb: 0.3,
}

// TestArtifactRunWorkerEquivalence: an artifact-heavy campaign must emit a
// bit-identical result stream for any worker count — artifact coin flips ride
// the per-task PRNG, never worker-local state.
func TestArtifactRunWorkerEquivalence(t *testing.T) {
	baseline := func(workers int) []trace.Result {
		c, err := NewCaseArtifacts("quiet", Quick, stormMix)
		if err != nil {
			t.Fatal(err)
		}
		c.Platform.SetWorkers(workers)
		rs, err := c.Platform.Collect(c.Start, c.End)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rs
	}
	want := baseline(1)
	if len(want) == 0 {
		t.Fatal("empty sequential baseline")
	}
	for _, workers := range []int{2, 4, 8} {
		got := baseline(workers)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: artifact-laden stream differs from sequential (%d vs %d results)",
				workers, len(got), len(want))
		}
	}
}

// TestQuietCaseFalsePositiveFloor pins the detector's noise floor: the quiet
// baseline with artifacts off must produce zero alarms and zero events, and
// even under every artifact mix the event layer must stay silent — artifacts
// alone may raise alarms, but no mix fabricates a major event on an
// undisturbed network.
func TestQuietCaseFalsePositiveFloor(t *testing.T) {
	evCfg := robustEventsConfig(Quick)
	for _, mix := range ArtifactMixes() {
		mix := mix
		t.Run(mix.Name, func(t *testing.T) {
			c, err := NewCaseArtifacts("quiet", Quick, mix.Art)
			if err != nil {
				t.Fatal(err)
			}
			c.Platform.SetWorkers(2)
			a, err := analyze(c, core.Config{RetainAlarms: true, Workers: 2, Events: evCfg})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			dal, fal := a.DelayAlarms(), a.ForwardingAlarms()
			if !mix.Art.Enabled() {
				if len(dal) != 0 || len(fal) != 0 {
					t.Errorf("clean quiet run raised %d delay + %d forwarding alarms, want 0 + 0",
						len(dal), len(fal))
				}
			}
			score := scoreEvents(c, a, 1)
			if score.Events != 0 {
				t.Errorf("mix %s: quiet run produced %d events, want 0 (%d delay alarms, %d fwd alarms)",
					mix.Name, score.Events, len(dal), len(fal))
			}
		})
	}
}

// TestRunRobustnessSmoke runs a two-cell grid end to end and checks the
// report's structure: cell accounting, score invariants, summary wiring, and
// that the report serializes (it is the BENCH_robust.json payload).
func TestRunRobustnessSmoke(t *testing.T) {
	rep, err := RunRobustness(Quick, RobustConfig{
		Cases: []string{"quiet"},
		Mixes: []ArtifactMix{
			{Name: "clean"},
			{Name: "lying", Art: netsim.Artifacts{LyingHopProb: 0.04, AliasProb: 0.25}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(rep.Cells))
	}
	for _, cell := range rep.Cells {
		if cell.Results == 0 {
			t.Errorf("cell %s/%s: zero results", cell.Case, cell.Mix)
		}
		s := cell.Base
		if s.TruePos+s.FalsePos != s.Events {
			t.Errorf("cell %s/%s: TP %d + FP %d != events %d", cell.Case, cell.Mix, s.TruePos, s.FalsePos, s.Events)
		}
		if s.Precision < 0 || s.Precision > 1 || s.Recall < 0 || s.Recall > 1 {
			t.Errorf("cell %s/%s: precision %v / recall %v outside [0,1]", cell.Case, cell.Mix, s.Precision, s.Recall)
		}
	}
	// The quiet case has no ground-truth windows; nothing contributes TPs.
	if rep.Summary.CleanTruePosBase != 0 || rep.Summary.CleanWindowsHitBase != 0 {
		t.Errorf("summary inconsistent: %+v", rep.Summary)
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report does not serialize: %v", err)
	}
	var back RobustReport
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
}

// BenchmarkRobustCell measures one artifact-laden (case, mix) cell end to
// end — generation, analysis, and event scoring. CI's bench-smoke
// runs this as the robustness-harness regression canary.
func BenchmarkRobustCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := RunRobustness(Quick, RobustConfig{
			Cases: []string{"quiet"},
			Mixes: []ArtifactMix{{Name: "storm", Art: stormMix}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Cells) != 1 {
			b.Fatalf("got %d cells, want 1", len(rep.Cells))
		}
	}
}
