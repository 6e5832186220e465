package experiments

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

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
			// The robustness scoring skips each run's first day, so every
			// disruption must start after it and end within the run.
			for _, w := range c.EventWindows {
				if w[0].Before(c.Start.Add(24*time.Hour)) || w[1].After(c.End) || !w[1].After(w[0]) {
					t.Errorf("event window %v–%v outside [start+24h, end) = [%v, %v)",
						w[0], w[1], c.Start.Add(24*time.Hour), c.End)
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
		if e.Run == nil || e.Title == "" {
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
