package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/forwarding"
)

var update = flag.Bool("update", false, "rewrite the golden snapshots and reports under testdata/")

// goldenSnapshot is the serialized end-to-end output of one fixed-seed case
// run: every delay alarm, every forwarding alarm, and the detected events.
// All fields marshal deterministically (no maps with unordered keys), so
// the files diff cleanly across runs.
type goldenSnapshot struct {
	Case             string             `json:"case"`
	Scale            string             `json:"scale"`
	Results          int                `json:"results"`
	DelayAlarms      []delay.Alarm      `json:"delay_alarms"`
	ForwardingAlarms []forwarding.Alarm `json:"forwarding_alarms"`
	Events           []events.Event     `json:"events"`
}

// TestGoldenCaseOutputs is the end-to-end regression net: a fixed-seed
// quick-scale run of each scenario must reproduce the checked-in snapshot
// bit for bit — any change to the detectors, the engine, the generator or
// the simulator that shifts a single alarm fails here with a line diff.
// Regenerate intentionally with:
//
//	go test ./internal/experiments -run TestGolden -update
func TestGoldenCaseOutputs(t *testing.T) {
	// ddos exercises the delay path (and events); ixp the forwarding path.
	for _, name := range []string{"ddos", "ixp"} {
		t.Run(name, func(t *testing.T) {
			c, err := NewCase(name, Quick)
			if err != nil {
				t.Fatal(err)
			}
			c.Platform.SetWorkers(2)
			cfg := core.Config{RetainAlarms: true, Workers: 2}
			cfg.Events.Threshold = 3
			cfg.Events.Window = 24 * time.Hour
			a, err := analyze(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()

			snap := goldenSnapshot{
				Case:             c.Name,
				Scale:            "quick",
				Results:          a.Results(),
				DelayAlarms:      a.DelayAlarms(),
				ForwardingAlarms: a.ForwardingAlarms(),
				Events:           a.Aggregator().Events(c.Start, c.End.Add(time.Hour)),
			}
			got, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			checkGolden(t, fmt.Sprintf("golden_%s.json", name), got)
		})
	}
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/experiments -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from %s:\n%s\nrun with -update if the change is intended", path, firstDiff(want, got))
	}
}

// firstDiff renders the first divergent line with context — a readable
// failure instead of two multi-thousand-line JSON blobs.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	line := func(s []string, i int) (string, bool) {
		if i < len(s) {
			return s[i], true
		}
		return "", false
	}
	for i := 0; i < n; i++ {
		wl, wok := line(w, i)
		gl, gok := line(g, i)
		if wok == gok && wl == gl {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "first difference at line %d (golden %d lines, got %d lines)\n", i+1, len(w), len(g))
		for j := i - 2; j <= i+2; j++ {
			if j < 0 {
				continue
			}
			if l, ok := line(w, j); ok {
				marker := " "
				if j == i {
					marker = "-"
				}
				fmt.Fprintf(&b, "%s golden %5d | %s\n", marker, j+1, l)
			}
		}
		if l, ok := line(g, i); ok {
			fmt.Fprintf(&b, "+ got    %5d | %s\n", i+1, l)
		}
		return b.String()
	}
	return "files differ only in length"
}
