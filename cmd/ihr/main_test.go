package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

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

// TestFollowRefusesWriterInputs runs the built command. A replica builds no
// input: it used to parse -scale and build the writer's case (-scale nosuch
// failed on the scale), and to accept and ignore -workers, -gen-workers and
// -case. Every writer input flag given with -follow is now refused before
// the listener opens, with the message -input and -store always had.
func TestFollowRefusesWriterInputs(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "ihr")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ args, want string }{
		{"-scale nosuch", "-follow and -scale are mutually exclusive"},
		{"-workers 7", "-follow and -workers are mutually exclusive"},
		{"-gen-workers 3", "-follow and -gen-workers are mutually exclusive"},
		{"-case quiet", "-follow and -case are mutually exclusive"},
		{"-input dump.ndjson", "-follow and -input are mutually exclusive"},
		{"-store st", "-follow and -store are mutually exclusive"},
	} {
		// A replica that accepted the flag would serve until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		args := append([]string{"-follow", "http://127.0.0.1:1", "-addr", "127.0.0.1:0"}, strings.Fields(tc.args)...)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		cancel()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("ihr %s: exit %v, output %q; want a failure containing %q", strings.Join(args, " "), err, out, tc.want)
		}
	}
}
