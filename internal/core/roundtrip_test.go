package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pinpoint/internal/ingest"
	"pinpoint/internal/trace"
)

// TestRunFilesRoundTripMatchesFused is the ingestion pipeline's headline
// correctness property: generate → encode to the Atlas NDJSON wire format
// (gzipped, like a real dump) → decode through the parallel ingest pipeline
// → analyze must produce alarms, statistics and events bit-identical to the
// direct fused RunPlatform run on the same seed and case, for every decode
// worker count.
func TestRunFilesRoundTripMatchesFused(t *testing.T) {
	end := start.Add(72 * time.Hour) // covers the injected 48h..50h attack

	// Direct fused run: parallel generator straight into the sharded engine.
	p1, _, _, _ := buildAttack(t)
	p1.SetWorkers(3)
	cfg := Config{RetainAlarms: true, Workers: 2}
	cfg.Events.Threshold = 3
	cfg.Events.Window = 24 * time.Hour
	direct := New(cfg, p1.ProbeASN, p1.Net().Prefixes())
	defer direct.Close()
	if err := direct.RunPlatform(context.Background(), p1, start, end); err != nil {
		t.Fatal(err)
	}
	if direct.Results() == 0 || len(direct.DelayAlarms()) == 0 {
		t.Fatalf("direct run degenerate: %d results, %d delay alarms",
			direct.Results(), len(direct.DelayAlarms()))
	}
	evFrom, evTo := start.Add(24*time.Hour), end
	directEvents := direct.Aggregator().Events(evFrom, evTo)
	if len(directEvents) == 0 {
		t.Fatal("direct run detected no events; round-trip comparison would be vacuous")
	}

	// Encode the same campaign to a gzipped NDJSON dump — what
	// `atlasgen -out dump.ndjson.gz` produces.
	p2, _, _, _ := buildAttack(t)
	var dump bytes.Buffer
	zw := gzip.NewWriter(&dump)
	tw := trace.NewWriter(zw)
	if err := p2.Run(start, end, tw.Write); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	path := dumpFile(t, dump.Bytes())

	for _, workers := range []int{1, 2, 3, 4, 8} {
		replay := New(cfg, p2.ProbeASN, p2.Net().Prefixes())
		st, err := replay.RunFiles(context.Background(), []string{path},
			ingest.Options{Workers: workers})
		if err != nil {
			replay.Close()
			t.Fatalf("decode workers=%d: %v", workers, err)
		}

		if st.Results != direct.Results() || replay.Results() != direct.Results() {
			t.Errorf("decode workers=%d: results %d (stats %d), want %d",
				workers, replay.Results(), st.Results, direct.Results())
		}
		if !reflect.DeepEqual(replay.DelayAlarms(), direct.DelayAlarms()) {
			t.Errorf("decode workers=%d: delay alarms differ (%d vs %d)",
				workers, len(replay.DelayAlarms()), len(direct.DelayAlarms()))
		}
		if !reflect.DeepEqual(replay.ForwardingAlarms(), direct.ForwardingAlarms()) {
			t.Errorf("decode workers=%d: forwarding alarms differ (%d vs %d)",
				workers, len(replay.ForwardingAlarms()), len(direct.ForwardingAlarms()))
		}
		if !reflect.DeepEqual(replay.Aggregator().Events(evFrom, evTo), directEvents) {
			t.Errorf("decode workers=%d: events differ", workers)
		}
		if replay.LinksSeen() != direct.LinksSeen() || replay.RoutersSeen() != direct.RoutersSeen() {
			t.Errorf("decode workers=%d: stats differ: links %d/%d routers %d/%d", workers,
				replay.LinksSeen(), direct.LinksSeen(), replay.RoutersSeen(), direct.RoutersSeen())
		}
		replay.Close()
	}
}

// TestRunFilesSplitDumpMatchesSingle replays the same campaign split across
// two dump files (one gzipped) and asserts the multi-file stream analyzes
// identically to the single-file stream.
func TestRunFilesSplitDumpMatchesSingle(t *testing.T) {
	end := start.Add(24 * time.Hour)
	p, _, _, _ := buildAttack(t)

	var all []trace.Result
	if err := p.Run(start, end, func(r trace.Result) error {
		all = append(all, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	encode := func(rs []trace.Result, gz bool) []byte {
		var buf bytes.Buffer
		var w *trace.Writer
		var zw *gzip.Writer
		if gz {
			zw = gzip.NewWriter(&buf)
			w = trace.NewWriter(zw)
		} else {
			w = trace.NewWriter(&buf)
		}
		for _, r := range rs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if zw != nil {
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	mid := len(all) / 2
	dir := t.TempDir()
	paths := []string{dir + "/part1.ndjson", dir + "/part2.ndjson.gz"}
	writeFile(t, paths[0], encode(all[:mid], false))
	writeFile(t, paths[1], encode(all[mid:], true))

	single := New(Config{RetainAlarms: true, Workers: 2}, p.ProbeASN, p.Net().Prefixes())
	defer single.Close()
	if _, err := single.RunFiles(context.Background(),
		[]string{dumpFile(t, encode(all, false))}, ingest.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	split := New(Config{RetainAlarms: true, Workers: 2}, p.ProbeASN, p.Net().Prefixes())
	defer split.Close()
	st, err := split.RunFiles(context.Background(), paths, ingest.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != len(all) {
		t.Fatalf("split replay decoded %d results, want %d", st.Results, len(all))
	}
	if !reflect.DeepEqual(split.DelayAlarms(), single.DelayAlarms()) ||
		!reflect.DeepEqual(split.ForwardingAlarms(), single.ForwardingAlarms()) {
		t.Error("split-file replay alarms differ from single-stream replay")
	}
}

func writeFile(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// dumpFile writes data to a fresh file in t's temporary directory and
// returns its path, for RunFiles.
func dumpFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dump.ndjson")
	writeFile(t, path, data)
	return path
}
