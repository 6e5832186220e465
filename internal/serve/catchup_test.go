package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pinpoint/internal/delay"
	"pinpoint/internal/segstore"
	"pinpoint/internal/trace"
)

// testURLs are the read endpoints of the synthetic pipeline.
var testURLs = []string{"/api/status", "/api/alarms/delay", "/api/alarms/forwarding", "/api/events",
	"/api/magnitude?asn=100", "/api/magnitude?asn=200"}

// snapSource serves one fixed snapshot through the regular handlers.
type snapSource struct {
	*Publisher
	snap *Snapshot
}

func (s snapSource) Snapshot() *Snapshot { return s.snap }
func (s snapSource) Results() int        { return s.snap.Results }

// TestCatchUpLeavesMirrorIdentical is the catch-up contract, exhaustively:
// for every since in 0..seq, every ring size and with or without a store, a
// mirror holding the run's first `since` deltas that applies what the
// stream handler would send it — CatchUp's replay, or one Full delta when
// CatchUp does not cover the range — serves the writer's bytes.
func TestCatchUpLeavesMirrorIdentical(t *testing.T) {
	for _, ring := range []int{1, 2, defaultFeedWindow} {
		for _, withStore := range []bool{false, true} {
			t.Run(fmt.Sprintf("ring=%d_store=%v", ring, withStore), func(t *testing.T) {
				var st *segstore.Store
				if withStore {
					var err error
					if st, err = segstore.Open(t.TempDir()); err != nil {
						t.Fatal(err)
					}
					defer st.Close()
				}
				a, pub, srv := newTestPipelineStore(t, st)
				pub.bc.setWindow(ring)
				sub := pub.Subscribe()
				for h := 0; h < 8; h++ {
					bin := t0.Add(time.Duration(h) * time.Hour)
					dev := 1.0
					if h == 5 {
						dev = 50 // event bin
					}
					closeBin(a, bin, []delay.Alarm{mkDelayAlarm(bin, "10.1.0.1", "10.2.0.1", dev)}, nil)
				}
				pub.Finish(nil)
				snap := pub.Snapshot()
				if len(snap.Events) == 0 {
					t.Fatal("run produced no events; test is vacuous")
				}
				// Seq 1 is the empty initial publication; 2..seq arrived live.
				live := []Delta{{Seq: 1}}
				for d := range sub.C {
					live = append(live, d)
					if d.Done {
						break
					}
				}
				if uint64(len(live)) != snap.Seq {
					t.Fatalf("collected %d live deltas, writer is at seq %d", len(live), snap.Seq)
				}

				fulls := 0
				for since := uint64(0); since <= snap.Seq; since++ {
					m := mirror{meta: pub.m.meta, binSize: pub.m.binSize}
					for i := range live[:since] {
						m.apply(&live[i])
					}
					ds, ok := pub.CatchUp(since, snap.Seq)
					if !ok {
						ds = []Delta{fullDelta(snap)}
						fulls++
					}
					for i := range ds {
						if !ds[i].Full && ds[i].Seq != m.seq+1 {
							t.Fatalf("since=%d: replay jumps from seq %d to %d", since, m.seq, ds[i].Seq)
						}
						m.apply(&ds[i])
					}
					msrv := NewServer(snapSource{pub, m.assemble()}, Options{Logf: func(string, ...any) {}})
					compareReplica(t, srv, msrv, testURLs)
				}
				// The store covers every committed bin and seq 1 is synthetic,
				// so only a storeless writer whose ring has slid past since+1
				// needs a Full delta.
				wantFulls := 0
				if !withStore && uint64(ring) < snap.Seq-1 {
					wantFulls = int(snap.Seq) - ring
				}
				if fulls != wantFulls {
					t.Errorf("%d of %d starting points fell back to a Full delta, want %d", fulls, snap.Seq+1, wantFulls)
				}
			})
		}
	}
}

// swapProxy keeps a follower's URL stable while the writer behind it is
// replaced.
type swapProxy struct {
	*httptest.Server
	backend atomic.Pointer[http.Handler]
}

func newSwapProxy(h http.Handler) *swapProxy {
	p := &swapProxy{}
	p.backend.Store(&h)
	p.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*p.backend.Load()).ServeHTTP(w, r)
	}))
	return p
}

// swap severs every open connection and routes new ones to h.
func (p *swapProxy) swap(h http.Handler) {
	p.backend.Store(&h)
	p.CloseClientConnections()
}

// TestFollowerAheadOfWriterResyncs: a follower that tailed writer A to seq
// 7 finds, on the same URL, a fresh writer B at seq 3 with a different
// history. Skipping B's deltas up to seq 7 and appending its seq 8 onto A's
// prefix would diverge silently; the follower must be handed one Full
// delta, log the resync, and end byte-identical to B.
func TestFollowerAheadOfWriterResyncs(t *testing.T) {
	aA, _, srvA := newTestPipeline(t)
	proxy := newSwapProxy(srvA.Handler())
	defer proxy.Close()

	var mu sync.Mutex
	var logged []string
	f, err := NewFollower(FollowerOptions{
		URL:          proxy.URL,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := NewServer(f, Options{Logf: func(string, ...any) {}})
	wait := startTail(t, f)

	for h := 0; h < 6; h++ {
		bin := t0.Add(time.Duration(h) * time.Hour)
		closeBin(aA, bin, []delay.Alarm{mkDelayAlarm(bin, "10.1.0.1", "10.2.0.1", 1)}, nil)
	}
	waitSeq(t, f, 7)

	aB, pubB, srvB := newTestPipeline(t)
	closeB := func(h int) {
		bin := t0.Add(time.Duration(h) * time.Hour)
		dev := 2.0
		if h == 7 {
			dev = 60 // an event A never had
		}
		closeBin(aB, bin, []delay.Alarm{mkDelayAlarm(bin, "10.2.0.1", "10.1.0.7", dev)}, nil)
	}
	closeB(0)
	closeB(1)
	proxy.swap(srvB.Handler())
	for deadline := time.Now().Add(30 * time.Second); f.Snapshot().Seq != 3; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower at seq %d never rewound to writer B's seq 3", f.Snapshot().Seq)
		}
	}
	for h := 2; h < 9; h++ { // past A's seq 7: B's deltas must extend B's prefix
		closeB(h)
	}
	pubB.Finish(nil)
	wait(t)

	compareReplica(t, srvB, fsrv, testURLs)
	if len(pubB.Snapshot().Events) == 0 {
		t.Fatal("writer B produced no events; test is vacuous")
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(strings.Join(logged, "\n"), "full delta at seq 3 replaces state at seq 7") {
		t.Errorf("the resync was not logged; follower log:\n%s", strings.Join(logged, "\n"))
	}
}

// TestFollowerRejectsProto2Hello: a writer speaking the previous feed
// version is a permanent error, not something to retry.
func TestFollowerRejectsProto2Hello(t *testing.T) {
	var dials atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dials.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: hello\ndata: {\"proto\":2,\"seq\":4,\"gen\":1,\"case\":\"ddos\",\"bin_ns\":3600000000000}\n\n")
	}))
	defer ts.Close()
	f, err := NewFollower(FollowerOptions{URL: ts.URL, ReconnectMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Run(ctx); err == nil || !strings.Contains(err.Error(), "proto 2") {
		t.Fatalf("Run against a proto-2 writer: %v, want a feed proto mismatch", err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("follower dialed a proto-2 writer %d times, want 1", n)
	}
}

// TestETagSurvivesStoreBackedRestart: an ETag a client took mid-run still
// revalidates to 304 after the writer is killed and rebooted from its
// store at the same seq — committed history is append-only across
// restarts, so (seq, query) still names the same bytes.
func TestETagSurvivesStoreBackedRestart(t *testing.T) {
	dir := t.TempDir()
	w1 := openStoreRun(t, "ddos", 2, dir)
	urls := []string{"/api/alarms/delay", "/api/alarms/forwarding", "/api/events"}
	etags := map[string]string{}
	var bodies map[string][]byte
	var seq uint64
	err := w1.c.Platform.RunChunks(context.Background(), w1.c.Start, w1.c.End, 0, func(rs []trace.Result) error {
		w1.a.ObserveBatch(rs)
		if len(w1.pub.Snapshot().Events) == 0 {
			return nil
		}
		for _, asn := range w1.a.Aggregator().ASes() {
			urls = append(urls, fmt.Sprintf("/api/magnitude?asn=%d", uint32(asn)))
		}
		seq = w1.pub.Snapshot().Seq
		bodies = capturePayloads(t, w1.srv, urls)
		for _, u := range urls {
			etags[u] = get(t, w1.srv, u).Header().Get("ETag")
		}
		return errKill
	})
	if !errors.Is(err, errKill) {
		t.Fatalf("run ended before any event was published: %v", err)
	}
	w1.close(t)

	w2 := openStoreRun(t, "ddos", 1, dir)
	defer w2.close(t)
	if got := w2.pub.Snapshot().Seq; got != seq {
		t.Fatalf("restored writer is at seq %d, killed one was at %d", got, seq)
	}
	for _, u := range urls {
		if etags[u] == "" {
			t.Fatalf("%s: no ETag before the restart", u)
		}
		if rec := get(t, w2.srv, u, "If-None-Match", etags[u]); rec.Code != http.StatusNotModified {
			t.Errorf("%s: ETag from before the restart got %d, want 304", u, rec.Code)
		}
	}
	comparePayloads(t, bodies, capturePayloads(t, w2.srv, urls))
}
