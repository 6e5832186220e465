package serve

import (
	"bytes"
	"context"
	"encoding/json"
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
func (s snapSource) Results() int64      { return s.snap.Results }

// catchUpRun is the synthetic run TestCatchUpLeavesMirrorIdentical
// replays: eight closed bins, an event at the sixth, then Finish(runErr). AS 100
// first alarms at the fourth bin, after AS 200, so its magnitude rows
// arrive backfilled and out of ASN order. It returns every delta a client
// could have applied — seq 1 is the empty initial publication, 2..seq
// arrived live — and the snapshot published at every seq, snaps[seq-1].
func catchUpRun(t *testing.T, st *segstore.Store, runErr error) (*Publisher, *Server, []Delta, []*Snapshot) {
	t.Helper()
	a, pub, srv := newTestPipelineStore(t, st)
	sub := pub.Subscribe()
	defer sub.Cancel()
	snaps := []*Snapshot{pub.Snapshot()}
	for h := 0; h < 8; h++ {
		bin := t0.Add(time.Duration(h) * time.Hour)
		dev := 1.0
		if h == 5 {
			dev = 50 // event bin
		}
		near := "10.2.0.7" // AS 200 only
		if h >= 3 {
			near = "10.1.0.1"
		}
		closeBin(a, bin, []delay.Alarm{mkDelayAlarm(bin, near, "10.2.0.1", dev)}, nil)
		snaps = append(snaps, pub.Snapshot())
	}
	pub.Finish(runErr)
	snaps = append(snaps, pub.Snapshot())
	for i, snap := range snaps {
		if snap.Seq != uint64(i+1) {
			t.Fatalf("snapshot %d is at seq %d, want one publication per bin", i, snap.Seq)
		}
	}
	live := []Delta{deltaFromRecord(&segstore.BinRecord{}, 1, time.Hour)}
	for d := range sub.C {
		live = append(live, d)
		if d.Done || d.Failed {
			break
		}
	}
	if snap := pub.Snapshot(); len(snap.Events) == 0 || uint64(len(live)) != snap.Seq {
		t.Fatalf("%d live deltas, %d events at seq %d; test is vacuous", len(live), len(snap.Events), snap.Seq)
	}
	return pub, srv, live, snaps
}

// TestCatchUpLeavesMirrorIdentical is the catch-up contract, exhaustively:
// for every since in 0..seq+2, a mirror holding the run's first `since`
// deltas — past seq, a history the source never had — that applies what the
// stream handler sends it serves the source's bytes, /api/bins included
// when both sides hold marks from seq 0; every append it is sent is its
// seq's live delta byte for byte; and a Full delta is sent exactly where
// since has no mark. Sources: a live writer with and without a store,
// a writer restored from that store, a follower whose marks restarted at a
// Full delta, and a writer whose run failed.
//
// The ring=N_store=B subtests open the stream while the writer (with or
// without a store) still stood at seq max(1, seq−N): the catch-up is cut
// from that earlier snapshot, and the N deltas that follow come from the
// subscription's ring of queued deltas, as handleStream forwards them.
// The seam between the two must neither drop nor repeat a seq.
func TestCatchUpLeavesMirrorIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := segstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pub, _, live, snaps := catchUpRun(t, st, nil)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	plain, plainSrv, plainLive, plainSnaps := catchUpRun(t, nil, nil)
	_, failedSrv, failedLive, _ := catchUpRun(t, nil, errors.New("ingest failed"))
	for i := range live {
		got, _ := json.Marshal(plainLive[i])
		if want, _ := json.Marshal(live[i]); !bytes.Equal(got, want) {
			t.Fatalf("seq %d: the storeless writer's live delta differs from the store-backed one's", i+1)
		}
	}

	// The writer restored from the store finishes the run the same way.
	st, err = segstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, restoredPub, restored := newTestPipelineStore(t, st)
	restoredPub.Finish(nil)

	// A follower that applied a Full delta at seq 4, then the rest live.
	mid := snaps[3]
	m := newMirror(pub.m.meta, pub.m.binSize)
	for d := range mid.catchUp(mid.Seq + 1) {
		if !d.Full {
			t.Fatalf("catch-up from ahead of seq %d sent an append", mid.Seq)
		}
		m.apply(&d)
	}
	for i := range live[mid.Seq:] {
		m.apply(&live[int(mid.Seq)+i])
	}
	resynced := snapSource{plain, m.assemble()}
	quiet := Options{Logf: func(string, ...any) {}}

	type source struct {
		name  string
		srv   *Server
		first uint64 // the first seq with a mark
		live  []Delta
		snaps []*Snapshot // the source's snapshot at every seq; nil: only its last
		ring  int         // deltas the client receives live after the catch-up
	}
	sources := []source{
		{name: "writer_store=false", srv: plainSrv, live: live},
		{name: "writer_store=true", srv: NewServer(pub, quiet), live: live},
		{name: "restored", srv: restored, live: live},
		{name: "follower_after_full", srv: NewServer(resynced, quiet), first: mid.Seq, live: live},
		{name: "writer_failed", srv: failedSrv, live: failedLive},
	}
	for _, ring := range []int{1, 2, 256} {
		for _, withStore := range []bool{false, true} {
			src := source{srv: plainSrv, live: live, snaps: plainSnaps, ring: ring}
			if withStore {
				src.srv, src.snaps = NewServer(pub, quiet), snaps
			}
			src.name = fmt.Sprintf("ring=%d_store=%v", ring, withStore)
			sources = append(sources, src)
		}
	}

	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			live := src.live
			final := src.srv.src.Snapshot()
			if final.Seq != uint64(len(live)) || !final.Complete() {
				t.Fatalf("source at seq %d (complete=%v), want the terminal seq %d", final.Seq, final.Complete(), len(live))
			}
			snap := final // the snapshot the stream was opened at
			if src.ring > 0 {
				snap = src.snaps[max(1, len(live)-src.ring)-1]
			}
			urls := append(testURLs, "/api/bins")
			for since := uint64(0); since <= final.Seq+2; since++ {
				c := newMirror(pub.m.meta, pub.m.binSize)
				for i := range live[:min(since, final.Seq)] {
					c.apply(&live[i])
				}
				for seq := final.Seq + 1; seq <= since; seq++ { // a history the source never had
					bin := t0.Add(time.Duration(seq) * time.Hour)
					c.apply(&Delta{Seq: seq, Bin: bin, DelayAlarms: []DelayAlarm{{Bin: bin, Link: "a>b"}}})
				}
				wantFull := since < src.first || since > snap.Seq
				full := false
				for d := range snap.catchUp(since) {
					if full = d.Full; !full && d.Seq != c.seq+1 {
						t.Fatalf("since=%d: catch-up jumps from seq %d to %d", since, c.seq, d.Seq)
					}
					if full != wantFull {
						t.Fatalf("since=%d: Full=%v, want %v", since, full, wantFull)
					}
					c.apply(&d)
					if !full { // one seq, one payload
						cut, l := d, live[d.Seq-1]
						cut.Identities, cut.Done, cut.Failed, cut.Err = nil, false, false, ""
						l.Identities, l.Done, l.Failed, l.Err = nil, false, false, ""
						compareDeltas(t, fmt.Sprintf("since=%d seq %d", since, d.Seq), cut, l)
					}
				}
				if c.seq != snap.Seq || full != wantFull {
					t.Fatalf("since=%d: catch-up left the client at seq %d (Full=%v), stream opened at %d", since, c.seq, full, snap.Seq)
				}
				for i := range live[snap.Seq:] { // the subscription's appends past the catch-up
					c.apply(&live[int(snap.Seq)+i])
				}
				if c.seq != final.Seq {
					t.Fatalf("since=%d: the client ended at seq %d, source at %d", since, c.seq, final.Seq)
				}
				u := testURLs
				if !full && src.first == 0 {
					u = urls // marks from seq 0 on both sides list the same bins
				}
				compareReplica(t, src.srv, NewServer(snapSource{plain, c.assemble()}, quiet), u)
			}
		})
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
		reconnectMin: 5 * time.Millisecond,
		reconnectMax: 20 * time.Millisecond,
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

// TestChainedFollowerFollowsUpstreamResync is TestFollowerAheadOfWriterResyncs
// with a second tier that joined late: F2 tails F1, which tails writer A to
// seq 7; A is replaced by writer B at seq 3. F1 applies B's Full delta and
// re-broadcasts it, and F2's stream — opened when F1 stood at seq 7 — must
// pass it on rather than skip it as already reflected, or F2 would append
// B's seq 8 onward onto A's history and finish "complete" but diverged.
func TestChainedFollowerFollowsUpstreamResync(t *testing.T) {
	aA, _, srvA := newTestPipeline(t)
	// Servers close after the followers stop (cleanups run last-in first-out):
	// a server's Close waits for the feed streams it still serves.
	proxy := newSwapProxy(srvA.Handler())
	t.Cleanup(proxy.Close)
	quiet := Options{Logf: func(string, ...any) {}}

	f1, err := NewFollower(FollowerOptions{URL: proxy.URL, reconnectMin: 5 * time.Millisecond, reconnectMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f1srv := NewServer(f1, quiet)
	ts1 := httptest.NewServer(f1srv.Handler())
	t.Cleanup(ts1.Close)
	wait1 := startTail(t, f1)
	for h := 0; h < 6; h++ {
		bin := t0.Add(time.Duration(h) * time.Hour)
		closeBin(aA, bin, []delay.Alarm{mkDelayAlarm(bin, "10.1.0.1", "10.2.0.1", 1)}, nil)
	}
	waitSeq(t, f1, 7)

	f2, err := NewFollower(FollowerOptions{URL: ts1.URL, reconnectMin: 5 * time.Millisecond, reconnectMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f2srv := NewServer(f2, quiet)
	wait2 := startTail(t, f2)
	waitSeq(t, f2, 7)

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
	for _, f := range []*Follower{f1, f2} {
		for deadline := time.Now().Add(30 * time.Second); f.Snapshot().Seq != 3; time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("follower at seq %d never rewound to writer B's seq 3", f.Snapshot().Seq)
			}
		}
	}
	for h := 2; h < 9; h++ {
		closeB(h)
	}
	pubB.Finish(nil)
	wait1(t)
	wait2(t)
	if len(pubB.Snapshot().Events) == 0 {
		t.Fatal("writer B produced no events; test is vacuous")
	}
	compareReplica(t, srvB, f1srv, testURLs)
	compareReplica(t, srvB, f2srv, testURLs)
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
	f, err := NewFollower(FollowerOptions{URL: ts.URL, reconnectMin: time.Millisecond})
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
