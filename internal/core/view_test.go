package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ingest"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/trace"
)

// attackDump encodes hours of the buildAttack campaign as plain NDJSON.
func attackDump(t testing.TB, hours int) (dump []byte, probeASN func(int) (ipmap.ASN, bool), table *ipmap.Table) {
	t.Helper()
	p, _, _, _ := buildAttack(t)
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	if err := p.Run(start, start.Add(time.Duration(hours)*time.Hour), tw.Write); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), p.ProbeASN, p.Net().Prefixes()
}

// TestRunFilesViewEquivalence is the worker-equivalence property of the
// replay path, which decodes wire lines straight to interned views inside
// the decode workers: for 1, 2, 4 and 8 decode workers and for the
// sequential and the sharded backend, RunFiles over one dump yields
// identical alarms, events and ingest.Stats. Over a dump with bad lines it
// stops where ingest.Files stops — same LineError, same batch withheld —
// with Validate on and off.
func TestRunFilesViewEquivalence(t *testing.T) {
	dump, probeASN, table := attackDump(t, 72) // covers the injected 48h..50h attack
	path := dumpFile(t, dump)
	cfg := Config{RetainAlarms: true}
	cfg.Events.Threshold = 3
	cfg.Events.Window = 24 * time.Hour

	type outcome struct {
		delay  []delay.Alarm
		fwd    []forwarding.Alarm
		events []events.Event
		st     ingest.Stats
		links  int
		rtrs   int
	}
	var want *outcome
	for _, cfg.Workers = range []int{1, 4} {
		for _, decoders := range []int{1, 2, 4, 8} {
			a := New(cfg, probeASN, table)
			st, err := a.RunFiles(context.Background(), []string{path}, ingest.Options{Workers: decoders})
			if err != nil {
				t.Fatalf("workers=%d decoders=%d: %v", cfg.Workers, decoders, err)
			}
			got := &outcome{a.DelayAlarms(), a.ForwardingAlarms(), a.Aggregator().Events(start.Add(24*time.Hour), start.Add(72*time.Hour)),
				st, a.LinksSeen(), a.RoutersSeen()}
			a.Close()
			if want == nil {
				want = got
				if len(want.delay) == 0 || len(want.events) == 0 || want.st.Results == 0 {
					t.Fatalf("degenerate reference run: %d delay alarms, %d events, %+v", len(want.delay), len(want.events), want.st)
				}
			} else if !reflect.DeepEqual(want, got) {
				t.Errorf("workers=%d decoders=%d: outcome differs from the sequential run (%d/%d delay, %d/%d forwarding alarms, %d/%d events, stats %+v vs %+v)",
					cfg.Workers, decoders, len(got.delay), len(want.delay), len(got.fwd), len(want.fwd), len(got.events), len(want.events), got.st, want.st)
			}
		}
	}

	// Line 300 decodes though its hops are out of order (ingestion checks
	// no structure); line 700 does not decode at all, and the chunk holding
	// it is withheld.
	lines := strings.Split(strings.TrimRight(string(dump), "\n"), "\n")
	lines[299] = `{"prb_id":1,"timestamp":1,"src_addr":"10.0.0.1","dst_addr":"10.0.0.2","result":[{"hop":2,"result":[{"x":"*"}]},{"hop":1,"result":[]}]}`
	lines[699] = "not json"
	bad := []string{dumpFile(t, []byte(strings.Join(lines, "\n")+"\n"))}
	wantN := 0
	_, err := ingest.Files(context.Background(), bad, ingest.Options{Workers: 1},
		func(rs []trace.Result) error { wantN += len(rs); return nil })
	var wantLE *ingest.LineError
	if !errors.As(err, &wantLE) || wantLE.Line != 700 {
		t.Fatalf("ingest.Files stopped with %v", err)
	}
	for _, cfg.Workers = range []int{1, 4} {
		for _, decoders := range []int{1, 2, 4, 8} {
			a := New(cfg, probeASN, table)
			gotN := 0
			_, err := a.RunFiles(context.Background(), bad, ingest.Options{Workers: decoders},
				func(n int, _, _ time.Time) { gotN += n })
			a.Close()
			var le *ingest.LineError
			if !errors.As(err, &le) || le.File != wantLE.File || le.Line != wantLE.Line || le.Err.Error() != wantLE.Err.Error() {
				t.Errorf("workers=%d decoders=%d: stopped with %v, want %v", cfg.Workers, decoders, err, wantLE)
			}
			if gotN != wantN || a.Results() != wantN {
				t.Errorf("workers=%d decoders=%d: ingested %d results (observers saw %d), want %d",
					cfg.Workers, decoders, a.Results(), gotN, wantN)
			}
		}
	}
}

// TestWideHopNumbersNotAdjacent guards the view's hop numbers: a wire hop is
// an int, and 4294967298 must not narrow to 2 and pair up with hop 1.
func TestWideHopNumbersNotAdjacent(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("hop numbers are 32-bit on this platform, in the Result too")
	}
	for hop, adjacent := range map[string]bool{"2": true, "4294967298": false} {
		line := `{"prb_id":1,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"10.0.9.9","result":[` +
			`{"hop":1,"result":[{"from":"10.0.1.1","rtt":1}]},{"hop":` + hop + `,"result":[{"from":"10.0.2.1","rtt":2}]}]}` + "\n"
		a := New(Config{}, func(int) (ipmap.ASN, bool) { return 64500, true }, new(ipmap.Table))
		if _, err := a.RunFiles(context.Background(), []string{dumpFile(t, []byte(line))}, ingest.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if got := a.LinksSeen() == 1 && a.RoutersSeen() == 1; got != adjacent {
			t.Errorf("hops 1 and %s: %d links, %d routers seen; adjacent = %t, want %t", hop, a.LinksSeen(), a.RoutersSeen(), got, adjacent)
		}
	}
}

// packedReplay builds a dump that packs a day of the buildAttack campaign,
// six times over, into two bins — so bin closes and file set-up are noise
// next to its 23 chunks — and returns one replay pass of it through an
// Analyzer that has already seen it once: link and flow slots, bin buffers
// and interner maps warm.
func packedReplay(t testing.TB) (pass func() ingest.Stats) {
	t.Helper()
	p, _, _, _ := buildAttack(t)
	day, err := p.Collect(start, start.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	for i := 0; i < 6*len(day); i++ {
		r := day[i%len(day)]
		r.Time = start.Add(time.Duration(i) * time.Second)
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	path := []string{dumpFile(t, buf.Bytes())}
	a := New(Config{}, p.ProbeASN, p.Net().Prefixes())
	pass = func() ingest.Stats {
		st, err := a.RunFiles(context.Background(), path, ingest.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	pass()
	return pass
}

// TestRunFilesAllocationsPerChunk pins the replay path's allocation rate:
// with detector state warm, a pass over a dump file allocates a small
// constant per 256-line chunk (the batch's view slice and its three
// columns; about ten with the line-chunk buffers the garbage collector takes
// from ingest's pool, about twenty under the race detector, which makes that
// pool lossy) — not per line, as the two allocations of every decoded Result
// were.
func TestRunFilesAllocationsPerChunk(t *testing.T) {
	pass := packedReplay(t)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st := pass()
	runtime.ReadMemStats(&m1)
	chunks := (st.Results + ingest.DefaultChunkSize - 1) / ingest.DefaultChunkSize
	perChunk := float64(m1.Mallocs-m0.Mallocs) / float64(chunks)
	t.Logf("%d allocations over %d results in %d chunks: %.1f per chunk", m1.Mallocs-m0.Mallocs, st.Results, chunks, perChunk)
	if chunks < 20 || perChunk > 64 {
		t.Errorf("replay allocates %.1f times per %d-line chunk over %d chunks, want a small constant (a Result per line would be %d)",
			perChunk, ingest.DefaultChunkSize, chunks, 2*ingest.DefaultChunkSize)
	}
}
