package main

import (
	"context"
	"net/netip"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseDotAroundRejectsBadFlags(t *testing.T) {
	for _, bad := range []struct{ dot, around string }{
		{"g.dot", "not-an-ip"},
		{"", "10.0.0.1"}, // -dot-around without -dot
	} {
		if addr, err := parseDotAround(bad.dot, bad.around); err == nil {
			t.Errorf("parseDotAround(%q, %q) = %v, want error", bad.dot, bad.around, addr)
		}
	}
	for _, ok := range []struct {
		dot, around string
		want        netip.Addr
	}{
		{"g.dot", "10.0.0.1", netip.MustParseAddr("10.0.0.1")},
		{"g.dot", "", netip.Addr{}},
		{"", "", netip.Addr{}},
	} {
		addr, err := parseDotAround(ok.dot, ok.around)
		if err != nil || addr != ok.want {
			t.Errorf("parseDotAround(%q, %q) = %v, %v; want %v", ok.dot, ok.around, addr, err, ok.want)
		}
	}
}

// TestNegativeWorkersRefused runs the built command. A negative worker
// count used to mean different things per flag: -workers -1 ran two shards
// (core.AutoWorkers), -workers -2 one inline shard, and -gen-workers -4
// every CPU. It is now refused before any work starts: before -scale is
// parsed, so the unknown scale every row passes is never reached. A count
// of 0 passes the check, and the run fails on the scale instead.
func TestNegativeWorkersRefused(t *testing.T) {
	bin := buildCommand(t, t.TempDir(), "pinpoint", ".")
	for _, tc := range []struct{ args, want string }{
		{"-workers -1", "-workers -1: a worker count cannot be negative"},
		{"-workers -2", "-workers -2: a worker count cannot be negative"},
		{"-gen-workers -4", "-gen-workers -4: a worker count cannot be negative"},
		{"-decode-workers -3", "-decode-workers -3: a worker count cannot be negative"},
		{"-workers 0 -gen-workers 0 -decode-workers 0", `unknown scale "nosuch"`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		args := append([]string{"-case", "quiet", "-scale", "nosuch"}, strings.Fields(tc.args)...)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		cancel()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("pinpoint %s: exit %v, output %q; want a failure containing %q", strings.Join(args, " "), err, out, tc.want)
		}
	}
}

// TestUnreadInputFlagsRefused runs the built command. A flag the chosen
// input does not read used to be accepted and ignored: -meta, -skip-bad and
// -decode-workers on a generated case, -gen-workers, -scale and -meta on a
// dump. It is now refused before any work starts, so no row reaches the
// dump paths, none of which exists.
func TestUnreadInputFlagsRefused(t *testing.T) {
	bin := buildCommand(t, t.TempDir(), "pinpoint", ".")
	const (
		generated = "does not apply to a generated case (-case without -input)"
		replayed  = "does not apply to a dump replayed with -case's metadata"
		sidecar   = "does not apply to a dump without -case"
	)
	for _, tc := range []struct{ args, want string }{
		{"-case leak -scale quick -meta /nonexistent/x.json", "-meta " + generated},
		{"-case leak -scale quick -skip-bad", "-skip-bad " + generated},
		{"-case leak -scale quick -decode-workers 3", "-decode-workers " + generated},
		{"-case leak -input /nonexistent/d.ndjson -meta /nonexistent/x.json", "-meta " + replayed},
		{"-case leak -input /nonexistent/d.ndjson -gen-workers 2", "-gen-workers " + replayed},
		{"-input /nonexistent/d.ndjson -meta /nonexistent/x.json -gen-workers 2", "-gen-workers " + sidecar},
		{"-input /nonexistent/d.ndjson -meta /nonexistent/x.json -scale full", "-scale " + sidecar},
		{"-input /nonexistent/d.ndjson -meta /nonexistent/x.json -store /nonexistent/st", "-store " + sidecar},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		args := strings.Fields(tc.args)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		cancel()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("pinpoint %s: exit %v, output %q; want a failure containing %q", tc.args, err, out, tc.want)
		}
	}
}

// buildCommand compiles the command in pkg (relative to this directory)
// into dir/name and returns the binary's path.
func buildCommand(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(dir, name)
	if out, err := exec.Command(goTool, "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// runCommand runs bin with args and returns its stdout, failing the test on
// a non-zero exit.
func runCommand(t *testing.T, bin string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// analysisOutput is a pinpoint report from its "links with samples" line
// on: the link and identity counts, the alarm counts, the per-AS table and
// the events. What comes before it names the input and the run window.
func analysisOutput(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "links with samples:")
	if i < 0 {
		t.Fatalf("no analysis report in output:\n%s", out)
	}
	return out[i:]
}

// TestInputModesAgree runs the leak case through the three inputs pinpoint
// reads: generated in place, a dump replayed with the case's metadata, and
// the same dump with its metadata sidecar. Wire timestamps are truncated to
// seconds, which moves no result across an hourly bin, so the three reports
// agree from the link counts on. Then a store-backed run is repeated: the
// second run boots from the first one's committed bins.
func TestInputModesAgree(t *testing.T) {
	dir := t.TempDir()
	pinpoint := buildCommand(t, dir, "pinpoint", ".")
	atlasgen := buildCommand(t, dir, "atlasgen", "../atlasgen")
	dump := filepath.Join(dir, "leak.ndjson")
	meta := filepath.Join(dir, "leak.meta.json")
	runCommand(t, atlasgen, "-case", "leak", "-scale", "quick", "-o", dump, "-meta", meta)

	fused := runCommand(t, pinpoint, "-case", "leak", "-scale", "quick", "-workers", "1")
	if !strings.Contains(fused, "fused pipeline") {
		t.Fatalf("fused run names no fused pipeline:\n%s", fused)
	}
	want := analysisOutput(t, fused)
	if !strings.Contains(want, "delay alarms: 40; forwarding alarms: 60") {
		t.Errorf("fused leak run: want 40 delay and 60 forwarding alarms:\n%s", want)
	}
	for _, args := range [][]string{
		{"-case", "leak", "-scale", "quick", "-input", dump, "-workers", "1"},
		{"-input", dump, "-meta", meta, "-workers", "1"},
	} {
		out := runCommand(t, pinpoint, args...)
		if !strings.Contains(out, "ingested 16704 lines (16704 results, 0 skipped) from 1 dump(s)") {
			t.Errorf("pinpoint %s: no ingest line for the whole dump:\n%s", strings.Join(args, " "), out)
		}
		if got := analysisOutput(t, out); got != want {
			t.Errorf("pinpoint %s: report differs from the fused run\ngot:\n%s\nwant:\n%s", strings.Join(args, " "), got, want)
		}
	}

	store := filepath.Join(dir, "store")
	storeArgs := []string{"-case", "ddos", "-scale", "quick", "-workers", "1", "-store", store}
	first := runCommand(t, pinpoint, storeArgs...)
	if strings.Contains(first, "resuming at") {
		t.Fatalf("first store run resumed from an empty store:\n%s", first)
	}
	second := runCommand(t, pinpoint, storeArgs...)
	if !strings.Contains(second, "committed bins, resuming at") {
		t.Errorf("second store run reports no resume:\n%s", second)
	}
	committed := func(out string) string {
		i := strings.Index(out, "segment store: ")
		if i < 0 {
			t.Fatalf("no segment store line:\n%s", out)
		}
		return out[i : i+strings.IndexByte(out[i:], '\n')]
	}
	if a, b := committed(first), committed(second); a != b {
		t.Errorf("store runs committed different bins: %q then %q", a, b)
	}
}
