package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Regression for the late-crash bug: an -input listing no usable path used
// to log.Fatal from inside the ingest goroutine, killing the server after
// it had started listening. parseInputs must reject it as a flag error
// instead, so main can refuse to serve at all.
func TestParseInputsRejectsEmptyLists(t *testing.T) {
	for _, bad := range []string{"", ",", " , ", ",,,"} {
		if paths, err := parseInputs(bad); err == nil {
			t.Errorf("parseInputs(%q) = %v, want error", bad, paths)
		}
	}
	paths, err := parseInputs(" a.ndjson , ,b.ndjson.gz")
	if err != nil {
		t.Fatalf("parseInputs(valid) error: %v", err)
	}
	if len(paths) != 2 || paths[0] != "a.ndjson" || paths[1] != "b.ndjson.gz" {
		t.Errorf("parseInputs = %v, want [a.ndjson b.ndjson.gz]", paths)
	}
}

// TestNegativeWorkersRefused runs the built command. A negative worker
// count is refused before the listener opens, so it fails the command
// instead of starting a server. The check runs before -scale is parsed, so
// the unknown scale every row passes is never reached. A count of 0 passes
// the check, and the run fails on the scale instead.
func TestNegativeWorkersRefused(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "ihr")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ args, want string }{
		{"-workers -1", "-workers -1: a worker count cannot be negative"},
		{"-workers -2", "-workers -2: a worker count cannot be negative"},
		{"-gen-workers -4", "-gen-workers -4: a worker count cannot be negative"},
		{"-decode-workers -3", "-decode-workers -3: a worker count cannot be negative"},
		{"-workers 0 -gen-workers 0 -decode-workers 0", `unknown scale "nosuch"`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		args := append([]string{"-case", "quiet", "-scale", "nosuch", "-addr", "127.0.0.1:0"}, strings.Fields(tc.args)...)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		cancel()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("ihr %s: exit %v, output %q; want a failure containing %q", strings.Join(args, " "), err, out, tc.want)
		}
	}
}
