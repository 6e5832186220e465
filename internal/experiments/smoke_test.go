package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeAll runs every registered experiment at Quick scale, checks its
// paper claims, and pins every rendered report byte for byte in
// testdata/reports_quick.txt (the stdout of `experiments` without its
// closing summary line) and the two alarm graphs WriteCaseGraphs draws from
// the same runs. Regenerate intentionally with
//
//	go test ./internal/experiments -run TestSmokeAll -update
func TestSmokeAll(t *testing.T) {
	var all strings.Builder
	rendered := 0
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			r, err := e.Run(Quick)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			for _, c := range r.Failed() {
				t.Errorf("%s claim failed: %s — measured %s (paper %s)", e.ID, c.Name, c.Measured, c.Paper)
			}
			all.WriteString(r.Render() + "\n")
			rendered++
		})
	}
	if rendered < len(Registry) {
		return // a -run filter or a failed harness: the whole-file pin cannot apply
	}
	checkGolden(t, "reports_quick.txt", []byte(all.String()))

	dir := t.TempDir()
	if err := WriteCaseGraphs(Quick, func(name string) (*os.File, error) {
		return os.Create(filepath.Join(dir, name))
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig08_ddos.dot", "fig12_leak.dot"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, got)
	}
}
