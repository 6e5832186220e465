package experiments

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"pinpoint/internal/events"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

func TestNewCaseAllNames(t *testing.T) {
	for _, name := range CaseNames {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := NewCase(name, Quick)
			if err != nil {
				t.Fatalf("NewCase(%s): %v", name, err)
			}
			if c.Platform == nil || c.Net == nil || c.Topo == nil {
				t.Fatal("case missing components")
			}
			if !c.End.After(c.Start) {
				t.Error("case has empty time range")
			}
			if name == "quiet" && len(c.EventWindows) != 0 {
				t.Error("quiet case should have no event windows")
			}
			if name != "quiet" && len(c.EventWindows) == 0 {
				t.Error("case study should declare its event windows")
			}
			// The figures and the robustness scoring skip each run's warm-up,
			// so every disruption must start after it and end within the run.
			for _, w := range c.EventWindows {
				if w[0].Before(c.Start.Add(warmup)) || w[1].After(c.End) || !w[1].After(w[0]) {
					t.Errorf("event window %v–%v outside [start+warmup, end) = [%v, %v)",
						w[0], w[1], c.Start.Add(warmup), c.End)
				}
			}
			// The platform must actually produce results.
			n := 0
			err = c.Platform.Run(c.Start, c.Start.Add(c.End.Sub(c.Start)/48), func(r trace.Result) error {
				n++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Error("case produced no results")
			}
		})
	}
}

// TestWindowRule pins the one window rule of the case figures and the
// robustness grid: inWindow is half-open, scoreAgainstWindows widens each
// window by slackBins bins on both sides, and extremes reads the largest or
// smallest value inside each window and outside all of them, from 0.
func TestWindowRule(t *testing.T) {
	t0 := time.Date(2015, 6, 12, 9, 0, 0, 0, time.UTC)
	at := func(h int) time.Time { return t0.Add(time.Duration(h) * time.Hour) }
	leak := [2]time.Time{at(0), at(2)}

	for _, tc := range []struct {
		bin  int
		want bool
	}{
		{-1, false}, {0, true}, {1, true}, {2, false}, {3, false},
	} {
		if got := inWindow(leak, at(tc.bin)); got != tc.want {
			t.Errorf("inWindow(%v, bin %+d) = %v, want %v", leak, tc.bin, got, tc.want)
		}
	}

	var evs []events.Event
	for h := -3; h <= 3; h++ {
		evs = append(evs, events.Event{Bin: at(h)})
	}
	got := scoreAgainstWindows(evs, [][2]time.Time{leak}, time.Hour)
	// With one bin of slack, bins -1 through 2 score; -3, -2 and 3 do not.
	want := RobustScore{Events: 7, TruePos: 4, FalsePos: 3, Windows: 1, WindowsHit: 1, Precision: 4.0 / 7, Recall: 1}
	if got != want {
		t.Errorf("scoreAgainstWindows = %+v, want %+v", got, want)
	}

	windows := [][2]time.Time{leak, {at(5), at(6)}}
	series := []timeseries.Point{{T: at(-1), V: 4}, {T: at(0), V: 7}, {T: at(1), V: -3}, {T: at(2), V: -8}, {T: at(5), V: 2}, {T: at(6), V: 5}}
	for _, tc := range []struct {
		name    string
		pts     []timeseries.Point
		windows [][2]time.Time
		sign    float64
		in      []float64
		out     float64
	}{
		{"largest", series, windows, +1, []float64{7, 2}, 5},
		{"smallest", series, windows, -1, []float64{-3, 0}, -8},
		{"no windows", series, nil, +1, []float64{}, 7},
		{"every point outside", series[:1], windows, -1, []float64{0, 0}, 0},
		{"empty series", nil, windows, +1, []float64{0, 0}, 0},
	} {
		in, out := extremes(tc.pts, tc.windows, tc.sign)
		if !slices.Equal(in, tc.in) || out != tc.out {
			t.Errorf("%s: extremes = %v, %v; want %v, %v", tc.name, in, out, tc.in, tc.out)
		}
	}
}

func TestNewCaseUnknown(t *testing.T) {
	if _, err := NewCase("nope", Quick); err == nil {
		t.Error("unknown case accepted")
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("F2"); !ok {
		t.Error("ByID(F2) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

func TestReportRender(t *testing.T) {
	r := &Report{
		ID: "X", Title: "test", Scale: Quick,
		Text:    "body\n",
		Metrics: map[string]float64{"m": 1},
		Claims: []Claim{
			{Name: "good", Paper: "p", Measured: "m", Holds: true},
			{Name: "bad", Paper: "p", Measured: "m", Holds: false},
		},
	}
	out := r.Render()
	for _, want := range []string{"== X: test", "body", "[OK ]", "[FAIL]", "Metrics:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
	if len(r.Failed()) != 1 {
		t.Errorf("Failed = %d, want 1", len(r.Failed()))
	}
}

// TestCheckWorkerFlags: a negative count on any worker flag is refused and
// named; 0, positive counts and unset flags pass. A flag set without some of
// the three (atlasgen defines only -gen-workers) is checked on the ones it
// has.
func TestCheckWorkerFlags(t *testing.T) {
	for _, tc := range []struct {
		defs []string // worker flags the command defines
		args []string
		want string // error substring; "" = accepted
	}{
		{[]string{"workers", "gen-workers", "decode-workers"}, nil, ""},
		{[]string{"workers", "gen-workers", "decode-workers"}, []string{"-workers", "0", "-gen-workers", "0", "-decode-workers", "0"}, ""},
		{[]string{"workers", "gen-workers", "decode-workers"}, []string{"-workers", "4", "-gen-workers", "1", "-decode-workers", "8"}, ""},
		{[]string{"workers", "gen-workers", "decode-workers"}, []string{"-workers", "-1"}, "-workers -1:"},
		{[]string{"workers", "gen-workers", "decode-workers"}, []string{"-workers", "-2"}, "-workers -2:"},
		{[]string{"workers", "gen-workers", "decode-workers"}, []string{"-gen-workers", "-4"}, "-gen-workers -4:"},
		{[]string{"workers", "gen-workers", "decode-workers"}, []string{"-decode-workers", "-3"}, "-decode-workers -3:"},
		{[]string{"gen-workers"}, []string{"-gen-workers", "-1"}, "-gen-workers -1:"},
		{[]string{"gen-workers"}, []string{"-gen-workers", "0"}, ""},
		{[]string{"workers"}, []string{"-workers", "-3"}, "-workers -3:"},
	} {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		for _, name := range tc.defs {
			fs.Int(name, 1, "")
		}
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := CheckWorkerFlags(fs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: refused: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
