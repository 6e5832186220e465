package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/experiments"
	"pinpoint/internal/segstore"
	"pinpoint/internal/trace"
)

var updateSegcorpus = flag.Bool("update-segcorpus", false,
	"regenerate internal/segstore/testdata/corpus from fixed-seed case runs")

// errKill is the sentinel a test callback returns to simulate the process
// dying mid-run: ingestion stops, nothing is flushed or finished, and only
// what the store committed survives.
var errKill = errors.New("simulated crash")

// storeRun is one pipeline run committing to the segment store in dir.
type storeRun struct {
	c   *experiments.Case
	a   *core.Analyzer
	pub *Publisher
	srv *Server
	st  *segstore.Store
}

func openStoreRun(t *testing.T, name string, workers int, dir string) *storeRun {
	t.Helper()
	c, err := experiments.NewCase(name, experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	st, err := segstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(core.Config{Workers: workers}, c.Platform.ProbeASN, c.Net.Prefixes())
	pub, err := NewPublisherWithStore(a, Meta{
		Case: c.Name, Description: c.Description,
		Start: c.Start, End: c.End,
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	return &storeRun{
		c: c, a: a, pub: pub, st: st,
		srv: NewServer(pub, Options{Logf: func(string, ...any) {}}),
	}
}

// ingest drives the full case input through the analyzer. killAfter > 0
// aborts (without flushing) once that many bins are durable, returning
// true; otherwise the run is completed and finished.
func (r *storeRun) ingest(t *testing.T, killAfter int) (killed bool) {
	t.Helper()
	err := r.c.Platform.RunChunks(context.Background(), r.c.Start, r.c.End, 0, func(rs []trace.Result) error {
		r.a.ObserveBatch(rs)
		r.pub.ObserveResults(len(rs))
		if killAfter > 0 && r.st.Len() >= killAfter {
			return errKill
		}
		return nil
	})
	if killAfter > 0 {
		if !errors.Is(err, errKill) {
			t.Fatalf("kill after %d bins never triggered: %v", killAfter, err)
		}
		r.close(t)
		return true
	}
	if err != nil {
		t.Fatal(err)
	}
	r.a.Flush()
	r.pub.Finish(nil)
	if serr := r.pub.StoreErr(); serr != nil {
		t.Fatalf("store error during run: %v", serr)
	}
	return false
}

func (r *storeRun) close(t *testing.T) {
	t.Helper()
	r.a.Close()
	if err := r.st.Close(); err != nil {
		t.Fatal(err)
	}
}

// capturePayloads reads the completed-run API payloads byte for byte.
func capturePayloads(t *testing.T, srv *Server, urls []string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(urls))
	for _, u := range urls {
		rec := get(t, srv, u)
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", u, rec.Code)
		}
		out[u] = append([]byte(nil), rec.Body.Bytes()...)
	}
	return out
}

// storeFile returns the bytes of the store's one file, segments.dat, and
// fails if the directory holds anything else.
func storeFile(t *testing.T, dir string) []byte {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != "segments.dat" {
		t.Fatalf("store directory %s holds %v, want only segments.dat", dir, des)
	}
	b, err := os.ReadFile(filepath.Join(dir, "segments.dat"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRestartEquivalence is the ISSUE 9 acceptance test: run the quick
// ddos case committing every bin to the segment store, kill the process
// after bin k, boot a fresh pipeline from the store and finish the run —
// the completed-run API payloads must be byte-identical to the
// uninterrupted run's for several k and for different worker counts, and
// so must the store file itself. A baseline without any store pins
// that store mode does not perturb the analysis output.
func TestRestartEquivalence(t *testing.T) {
	const caseName = "ddos"
	baseDir := t.TempDir()
	base := openStoreRun(t, caseName, 2, filepath.Join(baseDir, "base"))
	base.ingest(t, 0)
	nbins := base.st.Len()
	if nbins < 3 {
		t.Fatalf("case committed only %d bins; restart points are vacuous", nbins)
	}

	urls := []string{"/api/status", "/api/alarms/delay", "/api/alarms/forwarding", "/api/events", "/api/bins"}
	for _, asn := range base.a.Aggregator().ASes() {
		urls = append(urls, fmt.Sprintf("/api/magnitude?asn=%d", uint32(asn)))
	}
	want := capturePayloads(t, base.srv, urls)
	base.close(t)
	wantFile := storeFile(t, filepath.Join(baseDir, "base"))

	// Store mode must not perturb the analysis: the same run without a
	// store serves the same bytes.
	plain := runPlainCase(t, caseName, 2)
	for _, u := range urls {
		rec := get(t, plain, u)
		if !bytes.Equal(rec.Body.Bytes(), want[u]) {
			t.Errorf("store-backed %s differs from plain pipeline (%d vs %d bytes)",
				u, len(want[u]), rec.Body.Len())
		}
	}

	for i, tc := range []struct{ kill, workers int }{
		{1, 2},
		{nbins / 2, 1},
		{nbins - 1, 4},
	} {
		t.Run(fmt.Sprintf("kill=%d_workers=%d", tc.kill, tc.workers), func(t *testing.T) {
			dir := filepath.Join(baseDir, fmt.Sprintf("restart%d", i))

			killed := openStoreRun(t, caseName, 2, dir)
			killed.ingest(t, tc.kill)
			st, err := segstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			committed := st.Len()
			if committed < tc.kill || committed >= nbins {
				t.Fatalf("killed run left %d committed bins (kill=%d, total=%d)", committed, tc.kill, nbins)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			r := openStoreRun(t, caseName, tc.workers, dir)
			cursor, resumed := r.pub.Resumed()
			if !resumed {
				t.Fatal("publisher did not resume from the non-empty store")
			}
			if last, _ := r.st.LastBin(); r.st.Len() != committed || !cursor.Equal(last.Add(time.Hour)) {
				t.Fatalf("resume cursor %v over %d committed bins, want the hour after %v (%d bins)", cursor, r.st.Len(), last, committed)
			}

			// Hammer the history endpoints from another goroutine for the
			// whole resumed run: commits and snapshot reads must be
			// race-free.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, u := range []string{"/api/bins", "/api/status"} {
						req := httptest.NewRequest("GET", u, nil)
						r.srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
					}
				}
			}()
			r.ingest(t, 0)
			close(stop)
			wg.Wait()

			got := capturePayloads(t, r.srv, urls)
			for _, u := range urls {
				if !bytes.Equal(got[u], want[u]) {
					t.Errorf("%s differs after restart (%d vs %d bytes)", u, len(got[u]), len(want[u]))
				}
			}
			r.close(t)
			if got := storeFile(t, dir); !bytes.Equal(got, wantFile) {
				t.Errorf("segments.dat differs from the uninterrupted run's (%d vs %d bytes)", len(got), len(wantFile))
			}
		})
	}
}

func runPlainCase(t *testing.T, name string, workers int) *Server {
	t.Helper()
	c, err := experiments.NewCase(name, experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(core.Config{Workers: workers}, c.Platform.ProbeASN, c.Net.Prefixes())
	defer a.Close()
	pub := NewPublisher(a, Meta{
		Case: c.Name, Description: c.Description,
		Start: c.Start, End: c.End,
	})
	err = c.Platform.RunChunks(context.Background(), c.Start, c.End, 0, func(rs []trace.Result) error {
		a.ObserveBatch(rs)
		pub.ObserveResults(len(rs))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Flush()
	pub.Finish(nil)
	return NewServer(pub, Options{Logf: func(string, ...any) {}})
}

// TestLiveDeltaEqualsStoreDelta pins "one seq, one payload": every delta
// the writer broadcasts is, byte for byte, the cut of its seq from the
// writer's final snapshot and from the snapshot of a writer restored from
// the store — Identities aside, and the run's outcome, which only the last
// delta of a catch-up carries — so a follower that tailed live and one that
// caught up hold the same state at every seq, `results` included (the live
// delta used to carry Analyzer.Results(), one ahead of the record's
// ResultsClosed()).
func TestLiveDeltaEqualsStoreDelta(t *testing.T) {
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		r := openStoreRun(t, "ddos", workers, dir)
		sub := r.pub.Subscribe()
		var live []Delta
		drain := func() {
			for { // the subscription's buffer is finite
				select {
				case d := <-sub.C:
					live = append(live, d)
				default:
					return
				}
			}
		}
		err := r.c.Platform.RunChunks(context.Background(), r.c.Start, r.c.End, 0, func(rs []trace.Result) error {
			r.a.ObserveBatch(rs)
			drain()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		r.a.Flush()
		r.pub.Finish(nil)
		drain()
		sub.Cancel()
		final := r.pub.Snapshot()
		if len(live) < 3 || len(live) != r.st.Len()+1 || !live[len(live)-1].Done {
			t.Fatalf("workers=%d: %d live deltas for %d committed bins, the last not terminal", workers, len(live), r.st.Len())
		}
		r.close(t)
		restored := openStoreRun(t, "ddos", workers, dir)

		for _, snap := range []*Snapshot{final, restored.pub.Snapshot()} {
			for i := 2; i < len(snap.marks); i++ {
				d := live[i-2]
				if d.Identities == nil {
					t.Errorf("workers=%d seq %d: live delta carries no identities", workers, d.Seq)
				}
				d.Identities, d.Done = nil, false
				compareDeltas(t, fmt.Sprintf("workers=%d seq %d", workers, d.Seq), snap.cut(i), d)
			}
		}
		for d := range final.catchUp(final.Seq - 1) {
			compareDeltas(t, fmt.Sprintf("workers=%d terminal seq", workers), d, live[len(live)-1])
		}
		restored.close(t)
	}
}

func compareDeltas(t *testing.T, what string, cut, live Delta) {
	t.Helper()
	got, err := json.Marshal(cut)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: cut differs from the live delta\ncut  %s\nlive %s", what, got, want)
	}
}

// TestPublisherResultsNeverOvercounts: the live counter is what the caller
// reported through ObserveResults and nothing else — publishing a snapshot
// mid-batch used to fold the analyzer's count in as well, and the batch was
// then added on top.
func TestPublisherResultsNeverOvercounts(t *testing.T) {
	c, err := experiments.NewCase("ddos", experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(core.Config{Workers: 2}, c.Platform.ProbeASN, c.Net.Prefixes())
	defer a.Close()
	pub := NewPublisher(a, Meta{Case: c.Name, Start: c.Start, End: c.End})
	batches := 0
	err = c.Platform.RunChunks(context.Background(), c.Start, c.End, 0, func(rs []trace.Result) error {
		a.ObserveBatch(rs)
		pub.ObserveResults(len(rs))
		batches++
		if got, want := pub.Results(), int64(a.Results()); got != want {
			t.Errorf("after batch %d: Publisher.Results() = %d, Analyzer.Results() = %d", batches, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches < 3 || pub.Snapshot().Seq < 3 {
		t.Fatalf("%d batches, seq %d; test is vacuous", batches, pub.Snapshot().Seq)
	}
}

// TestBinsEndpoint pins the time-travel API: the index lists every
// committed bin, a committed bin cuts to its exact contribution, queries
// for bins that never closed 404, and a writer without a store serves the
// same bytes.
func TestBinsEndpoint(t *testing.T) {
	r := openStoreRun(t, "ddos", 1, t.TempDir())
	r.ingest(t, 0)
	defer r.close(t)

	snap := r.pub.Snapshot()
	bins := snap.bins()
	if len(bins) != r.st.Len() {
		t.Fatalf("%d bins listed, store has %d", len(bins), r.st.Len())
	}
	total := 0
	for _, b := range bins {
		total += b.DelayAlarms + b.FwdAlarms
	}
	if got := len(snap.DelayAlarms) + len(snap.FwdAlarms); total != got {
		t.Fatalf("per-bin alarm counts sum to %d, snapshot has %d", total, got)
	}

	// One committed bin round-trips through the endpoint.
	u := "/api/bins?bin=" + bins[len(bins)/2].Bin.Format(time.RFC3339)
	rec := get(t, r.srv, u)
	if rec.Code != 200 {
		t.Fatalf("%s: status %d: %s", u, rec.Code, rec.Body.String())
	}
	pl, found := snap.binPayload(bins[len(bins)/2].Bin)
	if !found {
		t.Fatal("binPayload: a listed bin is not found")
	}
	wantAlarms := 0
	for _, al := range snap.DelayAlarms {
		if al.Bin.Equal(pl.Bin) {
			wantAlarms++
		}
	}
	if len(pl.DelayAlarms) != wantAlarms {
		t.Fatalf("bin payload has %d delay alarms, snapshot attributes %d to that bin",
			len(pl.DelayAlarms), wantAlarms)
	}

	if rec := get(t, r.srv, "/api/bins?bin="+r.c.End.Add(48*time.Hour).Format(time.RFC3339)); rec.Code != 404 {
		t.Fatalf("uncommitted bin: status %d", rec.Code)
	}
	if rec := get(t, r.srv, "/api/bins?bin=not-a-time"); rec.Code != 400 {
		t.Fatalf("malformed bin: status %d", rec.Code)
	}

	plain := runPlainCase(t, "ddos", 1)
	compareReplica(t, r.srv, plain, []string{"/api/bins", u})
}

// TestUpdateSegcorpus regenerates the fuzz seed corpus from fixed-seed
// case runs when -update-segcorpus is set. The checked-in corpus gives
// FuzzSegmentRoundTrip realistic segment payloads as starting points.
func TestUpdateSegcorpus(t *testing.T) {
	if !*updateSegcorpus {
		t.Skip("run with -update-segcorpus to regenerate the fuzz corpus")
	}
	outDir := filepath.Join("..", "segstore", "testdata", "corpus")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ddos", "ixp"} {
		r := openStoreRun(t, name, 2, t.TempDir())
		r.ingest(t, 0)
		n := r.st.Len()
		stride := n/8 + 1
		largest, largestLen := 0, -1
		for i := 0; i < n; i++ {
			b, err := r.st.Payload(i)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) > largestLen {
				largest, largestLen = i, len(b)
			}
			if i%stride != 0 {
				continue
			}
			writeCorpus(t, outDir, name, i, b)
		}
		if largest%stride != 0 {
			b, err := r.st.Payload(largest)
			if err != nil {
				t.Fatal(err)
			}
			writeCorpus(t, outDir, name, largest, b)
		}
		r.close(t)
	}
}

func writeCorpus(t *testing.T, dir, name string, i int, b []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s_%03d.seg", name, i)), b, 0o644); err != nil {
		t.Fatal(err)
	}
}
