package experiments

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/ingest"
	"pinpoint/internal/ipmap"
)

// Mode is one kind of input a command reads. The modes nest: a command
// that reads dumps also generates, and one that reads a dump's metadata
// from a file also replays dumps with a case's.
type Mode uint8

// Modes, in nesting order.
const (
	Generate Mode = iota // -case generated in process, fused into the analyzer
	Replay               // -input dumps replayed with -case's metadata
	Sidecar              // -input dumps (stdin by default) whose metadata the command reads
)

// modeNames name the modes in refusals.
var modeNames = [...]string{"a generated case (-case without -input)", "a dump replayed with -case's metadata", "a dump without -case"}

// unread lists the shared flags each mode does not read. -case and -input
// select the mode, and every mode reads -workers.
var unread = [...][]string{
	Generate: {"decode-workers"},
	Replay:   {"gen-workers"},
	Sidecar:  {"scale", "gen-workers", "store"},
}

// DefineInputs defines on fs the input flags cmd/pinpoint, cmd/ihr and
// cmd/atlasgen share, each with one help text and one default, and returns
// the Source they describe once fs is parsed and Build has run. widest is
// the widest mode the command reads: -input, -decode-workers, -workers and
// -store are defined when it reads dumps. defaultCase is the command's
// -case default.
func DefineInputs(fs *flag.FlagSet, defaultCase string, widest Mode) *Source {
	s := &Source{fs: fs, widest: widest}
	fs.StringVar(&s.caseName, "case", defaultCase, "scenario to generate: "+strings.Join(CaseNames, ", ")+" (with -input, it supplies the dump's metadata)")
	fs.StringVar(&s.scale, "scale", "quick", "workload scale of -case: quick or full")
	fs.IntVar(&s.genWorkers, "gen-workers", 0, "measurement generator workers (0 = all CPUs, 1 = inline)")
	if widest > Generate {
		fs.StringVar(&s.input, "input", "", "comma-separated NDJSON dump paths to replay instead of generating -case (.gz ok, - for stdin)")
		fs.IntVar(&s.decodeWorkers, "decode-workers", 0, "NDJSON decode workers for -input (0 = all CPUs, 1 = inline)")
		fs.IntVar(&s.Workers, "workers", 0, "analysis worker shards (0 = all CPUs, 1 = one inline shard)")
		fs.StringVar(&s.Store, "store", "", "segment store directory committing every closed bin (requires -case); a rerun resumes past the committed bins")
	}
	return s
}

// parseInputs parses an -input list, refusing one that names no path.
func parseInputs(s string) ([]string, error) {
	paths := ingest.SplitPaths(s)
	if len(paths) == 0 {
		return nil, errors.New("-input lists no dump paths")
	}
	return paths, nil
}

// Source is a command's input: a case to generate, dumps to replay with
// the case's metadata, or dumps whose metadata the command supplies.
type Source struct {
	Mode    Mode
	Case    *Case    // nil for a Sidecar dump
	Paths   []string // the dumps Replay and Sidecar read, in order
	Store   string   // -store directory, "" for none
	Workers int      // -workers as a core.Config value (AutoWorkers for 0)

	// ProbeASN and Table are the input's metadata: the case's, or what the
	// command read for a Sidecar dump.
	ProbeASN func(int) (ipmap.ASN, bool)
	Table    *ipmap.Table

	fs                        *flag.FlagSet
	widest                    Mode
	caseName, scale, input    string
	genWorkers, decodeWorkers int
}

// Build checks the parsed flags and builds the input. Every refusal comes
// before the case is built, so a command calls it before any work starts
// or any listener opens. A flag given on the command line that the
// selected mode does not read is refused, not ignored; own lists the
// command's own flags each mode does not read.
func (s *Source) Build(own map[Mode][]string) error {
	if err := CheckWorkerFlags(s.fs); err != nil {
		return err
	}
	scale, err := ParseScale(s.scale)
	if err != nil {
		return err
	}
	if s.Workers == 0 {
		s.Workers = core.AutoWorkers
	}
	if s.decodeWorkers == 0 {
		s.decodeWorkers = runtime.GOMAXPROCS(0) // what ingest reads 0 as
	}
	if s.input != "" {
		if s.Paths, err = parseInputs(s.input); err != nil {
			return err
		}
		s.Mode = Replay
	}
	if s.caseName == "" && s.widest == Sidecar {
		s.Mode = Sidecar
		if s.Paths == nil {
			s.Paths = []string{"-"}
		}
	}
	s.fs.Visit(func(f *flag.Flag) {
		if err == nil && (slices.Contains(unread[s.Mode], f.Name) || slices.Contains(own[s.Mode], f.Name)) {
			err = fmt.Errorf("-%s does not apply to %s", f.Name, modeNames[s.Mode])
		}
	})
	if err != nil || s.Mode == Sidecar {
		return err
	}
	if s.Case, err = NewCase(s.caseName, scale); err != nil {
		return err
	}
	s.Case.Platform.SetWorkers(s.genWorkers)
	s.ProbeASN, s.Table = s.Case.Platform.ProbeASN, s.Case.Net.Prefixes()
	return nil
}

// Run is what one Source.Run did.
type Run struct {
	Stats         ingest.Stats // a dump replay's decode statistics
	GenWorkers    int          // generator workers of a generated case
	DecodeWorkers int          // decode workers of a dump replay
	// First and Last are the run window: the case's, or the first and last
	// replayed result's time.
	First, Last time.Time
	Elapsed     time.Duration
}

// Run drives a over the input: RunPlatform for a generated case, RunFiles
// for dumps. onError is a dump's per-line error policy (nil aborts at the
// first bad line); onBatch observes every ingested batch.
func (s *Source) Run(ctx context.Context, a *core.Analyzer, onError func(*ingest.LineError) error, onBatch ...func(n int, first, last time.Time)) (Run, error) {
	t0 := time.Now()
	if s.Mode == Generate {
		err := a.RunPlatform(ctx, s.Case.Platform, s.Case.Start, s.Case.End, onBatch...)
		return Run{GenWorkers: s.Case.Platform.Workers(), First: s.Case.Start, Last: s.Case.End, Elapsed: time.Since(t0)}, err
	}
	r := Run{DecodeWorkers: s.decodeWorkers}
	window := func(_ int, first, last time.Time) {
		if r.First.IsZero() {
			r.First = first
		}
		r.Last = last
	}
	st, err := a.RunFiles(ctx, s.Paths, ingest.Options{Workers: s.decodeWorkers, OnError: onError}, append([]func(int, time.Time, time.Time){window}, onBatch...)...)
	r.Stats, r.Elapsed = st, time.Since(t0)
	return r, err
}
