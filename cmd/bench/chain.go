package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/segstore"
	"pinpoint/internal/serve"
)

// chain is the IHR deployment in one process: analyzer -> publisher with a
// segment store -> writer HTTP server on loopback -> one follower tailing
// the feed over real HTTP -> the follower's own HTTP server.
type chain struct {
	fx  *ddosFx
	dir string

	a    *core.Analyzer
	st   *segstore.Store
	pub  *serve.Publisher
	wsrv *serve.Server
	wts  *httptest.Server

	f        *serve.Follower
	fsrv     *serve.Server
	fts      *httptest.Server
	cancel   context.CancelFunc
	followed chan error // f.Run's result
	resyncs  atomic.Int64
}

func quiet(string, ...any) {}

// startChain builds the whole chain on an empty store in dir and waits
// until the follower is connected and synchronized with the writer's
// initial snapshot, so the first fed result already has a replica to reach.
func startChain(fx *ddosFx, workers int, dir string) (*chain, error) {
	c := &chain{fx: fx, dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := segstore.Open(dir)
	if err != nil {
		return nil, err
	}
	c.st = st
	c.a = core.New(core.Config{Workers: workers, RetainAlarms: true}, fx.plat.ProbeASN, fx.c.Net.Prefixes())
	meta := serve.Meta{Case: fx.c.Name, Description: fx.c.Description, Start: fx.c.Start, End: fx.c.End}
	if c.pub, err = serve.NewPublisherWithStore(c.a, meta, st); err != nil {
		c.a.Close()
		st.Close()
		return nil, err
	}
	c.wsrv = serve.NewServer(c.pub, serve.Options{Logf: quiet})
	c.wts = httptest.NewServer(c.wsrv.Handler())

	c.f, err = c.newFollower()
	if err != nil {
		c.stop()
		return nil, err
	}
	c.fsrv = serve.NewServer(c.f, serve.Options{Logf: quiet})
	c.fts = httptest.NewServer(c.fsrv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.followed = make(chan error, 1)
	go func() { c.followed <- c.f.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for c.f.Snapshot().Seq < c.pub.Snapshot().Seq {
		if time.Now().After(deadline) {
			c.stop()
			return nil, errors.New("follower never synchronized with the writer's initial snapshot")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return c, nil
}

func (c *chain) newFollower() (*serve.Follower, error) {
	return serve.NewFollower(serve.FollowerOptions{
		URL: c.wts.URL,
		// Logf fires once per reconnect after a failed or gapped
		// connection: exactly the resyncs a healthy run must not have.
		Logf: func(string, ...any) { c.resyncs.Add(1) },
	})
}

// waitFollower blocks until the follower applied the terminal delta.
func (c *chain) waitFollower(timeout time.Duration) error {
	select {
	case err := <-c.followed:
		c.followed <- err // keep it readable for stop
		return err
	case <-time.After(timeout):
		return fmt.Errorf("follower stuck at seq %d (writer at %d)", c.f.Snapshot().Seq, c.pub.Snapshot().Seq)
	}
}

// stop shuts every server and goroutine of the chain down and waits for
// them; the store directory is removed.
func (c *chain) stop() {
	if c.cancel != nil {
		c.cancel()
		<-c.followed
	}
	if c.fts != nil {
		c.fts.Close()
	}
	if c.wts != nil {
		c.pub.CloseSubscribers()
		c.wts.Close()
	}
	if c.a != nil {
		c.a.Close()
	}
	if c.st != nil {
		c.st.Close()
	}
	os.RemoveAll(c.dir)
}

const delayPage = "/api/alarms/delay"

// readURLs is the reader mix: status, the two alarm pages, events, and one
// magnitude series per AS the aggregator knows (rotated through).
func readURLs(a *core.Analyzer, fx *ddosFx) (fixed, mags []string) {
	fixed = []string{"/api/status", delayPage, "/api/alarms/forwarding", "/api/events"}
	for _, asn := range a.Aggregator().ASes() {
		mags = append(mags, fmt.Sprintf("/api/magnitude?asn=%d", uint32(asn)))
	}
	if len(mags) == 0 { // before any alarm: ask for the attacked root's operator
		mags = []string{fmt.Sprintf("/api/magnitude?asn=%d", uint32(fx.c.Topo.Roots[0].ASN))}
	}
	return fixed, mags
}

// payloads fetches every URL through the server's handler (no network).
func payloads(h http.Handler, urls []string) map[string][]byte {
	out := make(map[string][]byte, len(urls))
	for _, u := range urls {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
		out[u] = rec.Body.Bytes()
	}
	return out
}

// readRec is one HTTP read as the client saw it.
type readRec struct {
	url     string
	latency time.Duration
	bytes   int
	status  int
	ok      bool
}

// reader is one HTTP client goroutine's state.
type reader struct {
	client *http.Client
	base   string
	late   time.Duration // open loop: worst start lateness

	mu   sync.Mutex // recs is appended by the client, sliced by the measurer
	recs []readRec
}

// since returns the reads recorded from index i on.
func (r *reader) since(i int) []readRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]readRec(nil), r.recs[i:]...)
}

func newReader(base string) *reader {
	return &reader{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4, DisableCompression: true,
		}},
	}
}

func (r *reader) close() { r.client.CloseIdleConnections() }

// get performs one read and returns the ETag the server sent. start is
// when the request counts from (its due time in an open loop). want, when
// non-nil, is the exact body a 200 must carry; etag, when set, is sent as
// If-None-Match and a 304 is expected.
func (r *reader) get(tr *tracer, parent int, url, etag string, want []byte, start time.Time) (served string) {
	sp := tr.begin("serve.read", parent)
	rec := readRec{url: url}
	req, err := http.NewRequest(http.MethodGet, r.base+url, nil)
	if err == nil {
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		var resp *http.Response
		if resp, err = r.client.Do(req); err == nil {
			var body []byte
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			rec.status, rec.bytes = resp.StatusCode, len(body)
			served = resp.Header.Get("ETag")
			switch {
			case err != nil:
			case etag != "":
				rec.ok = resp.StatusCode == http.StatusNotModified
			default:
				rec.ok = resp.StatusCode == http.StatusOK && (want == nil || bytes.Equal(body, want))
			}
		}
	}
	rec.latency = time.Since(start)
	tr.end(sp)
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
	return served
}

// openLoop issues reads at a fixed rate until stop closes: request i is
// due at t0 + i/rate whatever happened to request i-1, and its latency
// counts from that due time, so a stall charges every read it delays.
func (r *reader) openLoop(tr *tracer, parent int, rate float64, urls func(i int) string, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t0 := time.Now()
	gap := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * gap)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
			if -d > r.late {
				r.late = -d
			}
		}
		r.get(tr, parent, urls(i), "", nil, due)
	}
}

// urlMix rotates status / delay page / events / one magnitude series, the
// magnitude AS walking a seed-shuffled order.
func urlMix(fixed, mags []string, seed uint64) func(i int) string {
	rng := rand.New(rand.NewPCG(seed, 0x75726c73))
	order := rng.Perm(len(mags))
	pages := []string{fixed[0], fixed[1], fixed[3]}
	return func(i int) string {
		if i%4 == 3 {
			return mags[order[(i/4)%len(order)]]
		}
		return pages[i%4]
	}
}
