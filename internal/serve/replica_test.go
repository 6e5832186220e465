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
	"testing"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/trace"
)

// startTail runs f.Run in the background and returns a wait function that
// fails the test if the follower does not finish cleanly in time.
func startTail(t *testing.T, f *Follower) (wait func(t *testing.T)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	return func(t *testing.T) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("follower run: %v", err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("follower never reached the terminal snapshot (stuck at seq %d)",
				f.Snapshot().Seq)
		}
	}
}

// waitSeq polls until the follower's published snapshot reaches seq.
func waitSeq(t *testing.T, f *Follower, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if f.Snapshot().Seq >= seq {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower stuck at seq %d, want >= %d", f.Snapshot().Seq, seq)
}

// apiURLs lists the completed-run read endpoints whose payloads the replica
// equivalence tests compare byte for byte.
func apiURLs(a *core.Analyzer) []string {
	urls := []string{"/api/status", "/api/alarms/delay", "/api/alarms/forwarding", "/api/events"}
	for _, asn := range a.Aggregator().ASes() {
		urls = append(urls, fmt.Sprintf("/api/magnitude?asn=%d", uint32(asn)))
	}
	return urls
}

func compareReplica(t *testing.T, writer, follower *Server, urls []string) {
	t.Helper()
	comparePayloads(t, capturePayloads(t, writer, urls), capturePayloads(t, follower, urls))
}

func comparePayloads(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	for u := range want {
		if !bytes.Equal(got[u], want[u]) {
			t.Errorf("%s differs from the writer's (%d vs %d bytes)", u, len(got[u]), len(want[u]))
		}
	}
}

// TestReplicaLiveTailEquivalence is the tentpole acceptance test: a
// follower tailing the feed live, from before the first result arrives,
// ends with completed-run API payloads byte-identical to the writer's —
// for both fixed-seed cases and regardless of the writer's worker count.
func TestReplicaLiveTailEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"ddos", 1},
		{"ddos", 4},
		{"ixp", 2},
	} {
		t.Run(fmt.Sprintf("%s_workers=%d", tc.name, tc.workers), func(t *testing.T) {
			w := openStoreRun(t, tc.name, tc.workers, t.TempDir())
			ts := httptest.NewServer(w.srv.Handler())
			defer ts.Close()

			f, err := NewFollower(FollowerOptions{URL: ts.URL})
			if err != nil {
				t.Fatal(err)
			}
			fsrv := NewServer(f, Options{Logf: func(string, ...any) {}})
			wait := startTail(t, f)

			w.ingest(t, 0)
			wait(t)

			compareReplica(t, w.srv, fsrv, apiURLs(w.a))
			w.close(t)
		})
	}
}

// TestReplicaResyncAfterDisconnect severs the feed connection twice
// mid-run, so the reconnects must resync through the appends catch-up cuts
// from the writer's snapshot — and still end byte-identical.
func TestReplicaResyncAfterDisconnect(t *testing.T) {
	w := openStoreRun(t, "ddos", 2, t.TempDir())
	ts := httptest.NewServer(w.srv.Handler())
	defer ts.Close()

	f, err := NewFollower(FollowerOptions{URL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := NewServer(f, Options{Logf: func(string, ...any) {}})
	wait := startTail(t, f)

	drops := 0
	err = w.c.Platform.RunChunks(context.Background(), w.c.Start, w.c.End, 0, func(rs []trace.Result) error {
		w.a.ObserveBatch(rs)
		w.pub.ObserveResults(len(rs))
		if n := w.st.Len(); (drops == 0 && n >= 3) || (drops == 1 && n >= 6) {
			drops++
			ts.CloseClientConnections()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if drops != 2 {
		t.Fatalf("forced %d disconnects, want 2 (case too short?)", drops)
	}
	w.a.Flush()
	w.pub.Finish(nil)
	if serr := w.pub.StoreErr(); serr != nil {
		t.Fatalf("store error during run: %v", serr)
	}
	wait(t)

	compareReplica(t, w.srv, fsrv, apiURLs(w.a))
	w.close(t)
}

// TestReplicaResyncAcrossGenerationBump reconnects a follower whose resume
// window straddles a late alarm into a closed bin. Closed bins are
// immutable, so there is no generation to bump and nothing is re-derived:
// the alarm is listed on both sides, contributes to no event or magnitude,
// the straddling delta is a plain append, and it leaves the follower
// byte-identical with no duplicate event whether the follower reconnects
// after it (ring_catchup: the catch-up cuts it from the writer's snapshot)
// or stays connected and receives it live.
func TestReplicaResyncAcrossGenerationBump(t *testing.T) {
	for _, tc := range []struct {
		name      string
		reconnect bool
	}{
		{"ring_catchup", true},
		{"live", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, pub, srv := newTestPipeline(t)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			// Generous backoff: the late alarm below lands while the follower
			// is still disconnected, so its resume straddles it.
			f, err := NewFollower(FollowerOptions{
				URL:          ts.URL,
				reconnectMin: 500 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			fsrv := NewServer(f, Options{Logf: func(string, ...any) {}})
			wait := startTail(t, f)

			// ref sees the same run minus the late alarm.
			refA, refPub, refSrv := newTestPipeline(t)
			for h := 0; h <= 5; h++ {
				bin := t0.Add(time.Duration(h) * time.Hour)
				dev := 1.0
				if h == 5 {
					dev = 50 // event bin
				}
				for _, an := range []*core.Analyzer{a, refA} {
					closeBin(an, bin, []delay.Alarm{mkDelayAlarm(bin, "10.1.0.1", "10.2.0.1", dev)}, nil)
				}
			}
			waitSeq(t, f, 7) // bins 0..5 applied live
			if len(f.Snapshot().Events) == 0 {
				t.Fatal("no events before the late alarm; test is vacuous")
			}
			if tc.reconnect {
				ts.CloseClientConnections()
			}

			sub := pub.Subscribe()
			defer sub.Cancel()
			lateBin := t0.Add(2 * time.Hour)
			bin6 := t0.Add(6 * time.Hour)
			closeBin(a, bin6, []delay.Alarm{
				mkDelayAlarm(lateBin, "10.1.0.1", "10.2.0.1", 40),
				mkDelayAlarm(bin6, "10.1.0.1", "10.2.0.1", 1),
			}, nil)
			closeBin(refA, bin6, []delay.Alarm{mkDelayAlarm(bin6, "10.1.0.1", "10.2.0.1", 1)}, nil)
			if d := <-sub.C; d.Full || d.Seq != 8 || len(d.DelayAlarms) != 2 || len(d.Events) != 0 {
				t.Fatalf("straddling delta is not a plain append of the bin's two alarms: %+v", d)
			}
			if got := a.Aggregator().DroppedStale(); got != 1 {
				t.Fatalf("DroppedStale = %d, want the one late alarm", got)
			}
			pub.Finish(nil)
			refPub.Finish(nil)
			wait(t)

			compareReplica(t, srv, fsrv, []string{"/api/status", "/api/alarms/delay", "/api/events",
				"/api/magnitude?asn=100", "/api/magnitude?asn=200"})
			// Listed, but changed no event and no magnitude.
			compareReplica(t, refSrv, fsrv, []string{"/api/events",
				"/api/magnitude?asn=100", "/api/magnitude?asn=200"})
			var alarms []DelayAlarm
			if err := json.Unmarshal(get(t, fsrv, "/api/alarms/delay").Body.Bytes(), &alarms); err != nil {
				t.Fatal(err)
			}
			if len(alarms) != 8 || !alarms[6].Bin.Equal(lateBin) {
				t.Fatalf("follower lists %d delay alarms, want 8 with the late one at index 6", len(alarms))
			}

			var evs []Event
			if err := json.Unmarshal(get(t, fsrv, "/api/events").Body.Bytes(), &evs); err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]bool)
			for _, e := range evs {
				key := e.ASN + e.Bin.String() + e.Type
				if seen[key] {
					t.Fatalf("duplicate event on follower: %+v", e)
				}
				seen[key] = true
			}
			if len(evs) == 0 {
				t.Fatal("follower serves no events")
			}

		})
	}
}

// TestReplicaBinsMatchWriter: /api/bins and every /api/bins?bin= are
// history, and history is cut from the snapshot on every role, so a
// store-backed writer, a storeless writer, a live follower, a follower that
// joined after the run and a chained follower serve the same bytes.
func TestReplicaBinsMatchWriter(t *testing.T) {
	w := openStoreRun(t, "ddos", 2, t.TempDir())
	defer w.close(t)
	// Servers close after the followers stop (cleanups run last-in first-out):
	// a server's Close waits for the feed streams it still serves.
	ts := httptest.NewServer(w.srv.Handler())
	t.Cleanup(ts.Close)
	quiet := Options{Logf: func(string, ...any) {}}
	follow := func(url string) (*Follower, *Server, func(*testing.T)) {
		f, err := NewFollower(FollowerOptions{URL: url})
		if err != nil {
			t.Fatal(err)
		}
		return f, NewServer(f, quiet), startTail(t, f)
	}
	_, liveSrv, waitLive := follow(ts.URL)
	ts1 := httptest.NewServer(liveSrv.Handler())
	t.Cleanup(ts1.Close)
	_, chainedSrv, waitChained := follow(ts1.URL)
	w.ingest(t, 0)
	waitLive(t)
	waitChained(t)
	_, lateSrv, waitLate := follow(ts.URL)
	waitLate(t)

	var bins []BinSummary
	if err := json.Unmarshal(get(t, w.srv, "/api/bins").Body.Bytes(), &bins); err != nil {
		t.Fatal(err)
	}
	if len(bins) != w.st.Len() {
		t.Fatalf("writer lists %d bins, its store holds %d", len(bins), w.st.Len())
	}
	urls := []string{"/api/bins"}
	for _, b := range bins {
		urls = append(urls, "/api/bins?bin="+b.Bin.Format(time.RFC3339))
	}
	for name, srv := range map[string]*Server{
		"storeless writer": runPlainCase(t, "ddos", 2),
		"live follower":    liveSrv,
		"late follower":    lateSrv,
		"chained follower": chainedSrv,
	} {
		t.Run(name, func(t *testing.T) { compareReplica(t, w.srv, srv, urls) })
	}
}

// TestFollowerSSEDataJoin pins the SSE decode rule that successive data
// lines join with '\n' (the spec's framing): a payload split mid-token must
// surface as a decode error, not silently concatenate into a different
// value (here seq 12 from "1"+"2").
func TestFollowerSSEDataJoin(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		h, err := json.Marshal(helloFor(&Snapshot{BinSize: time.Hour, Meta: Meta{Case: "ddos"}}))
		if err != nil {
			t.Error(err)
			return
		}
		fmt.Fprintf(w, "event: hello\ndata: %s\n\n", h)
		fmt.Fprint(w, "event: delta\ndata: {\"seq\":1\ndata: 2}\n\n")
	}))
	defer ts.Close()

	f, err := NewFollower(FollowerOptions{URL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	err = f.tail(context.Background())
	if err == nil || !strings.Contains(err.Error(), "decoding delta") {
		t.Fatalf("split-token delta: err=%v, want a delta decode error", err)
	}
	if got := f.Snapshot().Seq; got != 0 {
		t.Fatalf("follower applied seq %d from a corrupt payload", got)
	}
}

// TestReplicaResyncAcrossWriterRestart reconnects a follower across a
// writer restart: the restarted writer boots from the segment store, so it
// saw none of the seqs the follower missed live, and the catch-up is cut
// from the snapshot and marks it restored from the committed segments.
// Durable history survives a restart as a valid extension of the follower's
// state, so those deltas are appends — the follower must not discard (or
// collapse) its event list and magnitude history.
func TestReplicaResyncAcrossWriterRestart(t *testing.T) {
	dir := t.TempDir()

	// The proxy keeps the follower's URL stable across the restart; "down"
	// rejects dials while the first incarnation is being killed, so the
	// follower cannot slip back in and catch up before the gap has grown.
	down := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "writer restarting", http.StatusServiceUnavailable)
	}))
	w1 := openStoreRun(t, "ddos", 2, dir)
	ts := newSwapProxy(w1.srv.Handler())
	defer ts.Close()

	f, err := NewFollower(FollowerOptions{
		URL:          ts.URL,
		reconnectMin: 5 * time.Millisecond,
		reconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := NewServer(f, Options{Logf: func(string, ...any) {}})
	wait := startTail(t, f)

	// Let the follower tail live until the run has produced events (so a
	// state-discarding resync would have something to lose), sever it, then
	// keep the writer running until more bins are durable before killing
	// it: the follower's resume point lands several bins behind the store.
	severedAt := 0
	err = w1.c.Platform.RunChunks(context.Background(), w1.c.Start, w1.c.End, 0, func(rs []trace.Result) error {
		w1.a.ObserveBatch(rs)
		w1.pub.ObserveResults(len(rs))
		if severedAt == 0 && len(w1.pub.Snapshot().Events) > 0 {
			waitSeq(t, f, w1.pub.Snapshot().Seq)
			severedAt = w1.st.Len()
			ts.swap(down)
		}
		if severedAt > 0 && w1.st.Len() >= severedAt+4 {
			return errKill
		}
		return nil
	})
	if !errors.Is(err, errKill) {
		t.Fatalf("simulated crash never triggered: %v", err)
	}
	if severedAt == 0 {
		t.Fatal("follower was never severed (case produced no events?)")
	}
	w1.close(t)

	frozen := f.Snapshot()
	if len(frozen.Events) == 0 {
		t.Fatal("follower holds no events at the restart; the loss scenario is vacuous")
	}

	w2 := openStoreRun(t, "ddos", 1, dir)
	if frozen.Seq >= w2.pub.Snapshot().Seq {
		t.Fatalf("follower seq %d not behind the restored writer's %d; catch-up path not exercised", frozen.Seq, w2.pub.Snapshot().Seq)
	}
	// The restored writer holds a mark for every committed seq, so this
	// catch-up is cut from its snapshot: every delta must be a plain append,
	// never a resync.
	for d := range w2.pub.Snapshot().catchUp(frozen.Seq) {
		if d.Full {
			t.Fatalf("restored writer's catch-up delta seq %d is Full, want a plain append", d.Seq)
		}
	}

	ts.swap(w2.srv.Handler())
	w2.ingest(t, 0)
	wait(t)

	if got := f.Snapshot(); len(got.Events) < len(frozen.Events) {
		t.Errorf("follower lost events across the restart resync: %d before, %d after", len(frozen.Events), len(got.Events))
	}
	compareReplica(t, w2.srv, fsrv, apiURLs(w2.a))
	w2.close(t)
}

// TestReplicaChaining pins that replicas chain: a second-tier follower
// tailing a first-tier follower's own feed converges to the same bytes.
func TestReplicaChaining(t *testing.T) {
	w := openStoreRun(t, "ddos", 2, t.TempDir())
	ts := httptest.NewServer(w.srv.Handler())
	defer ts.Close()

	f1, err := NewFollower(FollowerOptions{URL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	f1srv := NewServer(f1, Options{Logf: func(string, ...any) {}})
	ts1 := httptest.NewServer(f1srv.Handler())
	defer ts1.Close()
	wait1 := startTail(t, f1)

	f2, err := NewFollower(FollowerOptions{URL: ts1.URL})
	if err != nil {
		t.Fatal(err)
	}
	f2srv := NewServer(f2, Options{Logf: func(string, ...any) {}})
	wait2 := startTail(t, f2)

	w.ingest(t, 0)
	wait1(t)
	wait2(t)

	urls := apiURLs(w.a)
	compareReplica(t, w.srv, f1srv, urls)
	compareReplica(t, w.srv, f2srv, urls)
	w.close(t)
}
