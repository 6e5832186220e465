package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/ingest"
	"pinpoint/internal/segstore"
	"pinpoint/internal/serve"
)

// W is the value of every worker knob of the end-to-end passes
// (core.Config.Workers, ingest.Options.Workers, Platform.SetWorkers) and the
// number of load-generator clients. It is 1 on purpose: this sandbox's two
// vCPUs are only sometimes two cores, so anything that keeps two threads busy
// reads up to 1.8x differently from one run to the next (ten seeds at W=2:
// IQR/median 0.07-0.27 on the timing metrics, against 0.03-0.08 at W=1),
// which no bound the benchmark may set survives. What several workers buy on
// the host at hand is reported per layer instead, by the _w1/_wN pairs.
const W = 1

// probeWorkers is the N of the per-layer _wN probes.
func probeWorkers() int { return max(2, min(runtime.NumCPU(), 4)) }

// env is what one workload run shares: sizing, the seed, scratch space, the
// tracer and the ledger of attempted and failed operations.
type env struct {
	sc   scaleDef
	seed uint64
	tmp  string
	tr   *tracer

	// layerRun marks the traced run, which also collects what the
	// per-layer metrics need from the end-to-end passes.
	layerRun bool

	attempted, failed int
	checks            []check
	checkAt           map[string]int // index into checks
}

// op counts n attempted operations of which bad failed.
func (e *env) op(n, bad int) { e.attempted += n; e.failed += bad }

// verify records a correctness check; a miss is one failed op. A check
// repeated every pass is listed once: its first miss, else its first hit.
func (e *env) verify(name string, ok bool, format string, args ...any) {
	e.op(1, btoi(!ok))
	i, seen := e.checkAt[name]
	if seen && (ok || !e.checks[i].OK) {
		return
	}
	c := check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
	if seen {
		e.checks[i] = c
		return
	}
	if e.checkAt == nil {
		e.checkAt = map[string]int{}
	}
	e.checkAt[name] = len(e.checks)
	e.checks = append(e.checks, c)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (e *env) adopt(cs []check) {
	for _, c := range cs {
		e.verify(c.Name, c.OK, "%s", c.Detail)
	}
}

// sample is one timed pass as the user would have experienced it.
type sample struct {
	ops       int
	wall      time.Duration
	cpu       float64 // process CPU seconds over the pass
	stateMB   float64
	latencyMS float64
}

// workload is one of the four named workloads. setup builds fixtures (it is
// what setup_s times) and teardown releases them; pass runs one timed pass
// on a fresh pipeline; layers runs the isolated per-layer probes of the
// layers this workload exercises and fills their metrics.
type workload interface {
	setup(e *env) error
	teardown()
	pass(e *env, id int) (sample, error)
	layers(e *env, m map[string]float64) error
}

func newWorkload(name string) workload {
	switch name {
	case wReplay:
		return &pipelineWL{replay: true}
	case wLive:
		return &pipelineWL{}
	case wChain:
		return &chainWL{}
	case wRead:
		return &readWL{}
	}
	return nil
}

// --- replay_internet and live_fused ---------------------------------------

// pipelineWL runs the synthetic-Internet campaign through a fresh analyzer:
// from the NDJSON file through the decoder (replay), or straight from the
// generator with no wire format (live).
type pipelineWL struct {
	replay bool
	fx     *internetFx
}

func (w *pipelineWL) setup(e *env) error {
	fx, err := buildInternet(e.sc, e.seed, W, e.tmp, w.replay, false)
	if err != nil {
		return err
	}
	w.fx = fx
	e.adopt(fx.checks)
	return nil
}

func (w *pipelineWL) teardown() {
	if w.fx != nil {
		w.fx.close()
		w.fx = nil
	}
}

func (w *pipelineWL) pass(e *env, id int) (sample, error) {
	fx := w.fx
	ctx := context.Background()
	root := e.tr.begin("pass", 0)
	base := heapMB()
	cpu0, t0 := cpuSeconds(), time.Now()

	a := core.New(core.Config{Workers: W, RetainAlarms: true}, fx.plat.ProbeASN, fx.net.Prefixes())
	defer a.Close()
	var st ingest.Stats
	var err error
	if w.replay {
		sp := e.tr.begin("core.RunFiles", root)
		st, err = a.RunFiles(ctx, []string{fx.ndjson}, ingest.Options{Workers: W})
		e.tr.end(sp)
	} else {
		sp := e.tr.begin("core.RunPlatform", root)
		err = a.RunPlatform(ctx, fx.plat, fx.start, fx.end)
		e.tr.end(sp)
	}
	if err != nil {
		return sample{}, err
	}
	sp := e.tr.begin("events.Events", root)
	evs := a.Aggregator().Events(fx.start, fx.end)
	e.tr.end(sp)

	s := sample{ops: a.Results(), wall: time.Since(t0)}
	s.cpu = cpuSeconds() - cpu0
	s.latencyMS = ms(s.wall)
	s.stateMB = heapMB() - base
	e.tr.end(root)

	got := outcomeOf(a, fx.start, fx.end)
	runtime.KeepAlive(evs)
	e.op(fx.results(), st.Skipped)
	if w.replay {
		e.verify("replay.decoded_all", st.Results == fx.results() && st.Skipped == 0,
			"decoded %d of %d results, %d lines skipped", st.Results, fx.results(), st.Skipped)
	}
	e.verify("results_equal_fixture", got.Results == fx.results(), "analyzer saw %d results, fixture has %d", got.Results, fx.results())
	e.verify("digest_equals_workers1_reference", got.Digest == fx.ref.Digest,
		"%d delay alarms, %d forwarding alarms, %d events; digest %.12s vs reference %.12s",
		len(got.Delay), len(got.Fwd), len(got.Events), got.Digest, fx.ref.Digest)
	return s, nil
}

// --- ihr_chain -------------------------------------------------------------

// chainWL feeds the pre-decoded DDoS campaign closed-loop through the whole
// IHR chain while one open-loop client reads the follower at readRate.
type chainWL struct {
	fx *ddosFx

	// Pooled over the passes of a traced run for the chain.* / feed.* /
	// follower.* / serve.* per-layer metrics.
	lagMS, replMS, closePubMS, commitMS, readUS []float64
	p95s                                        []float64
	deltaBytes, readBytes                       []float64
	seqLagMax, resyncs, reads                   int
	readLate                                    time.Duration
	lastStore                                   string
}

const readRate = 200 // reads/s of the open-loop client on ihr_chain

func (w *chainWL) setup(e *env) error {
	fx, err := buildDDoS(e.sc, e.seed, W)
	if err != nil {
		return err
	}
	w.fx = fx
	e.adopt(fx.checks)
	return nil
}

func (w *chainWL) teardown() { w.fx = nil }

func (w *chainWL) pass(e *env, id int) (sample, error) {
	fx := w.fx
	root := e.tr.begin("pass", 0)
	base := heapMB()
	dir := filepath.Join(e.tmp, fmt.Sprintf("store-%d", id))
	c, err := startChain(fx, W, dir)
	if err != nil {
		return sample{}, err
	}
	defer c.stop()

	// Arrival times of each bin's delta, on the writer's own subscription
	// and on the follower's: their difference is the feed's replication
	// time, the follower's minus the hand-in time is the visible lag.
	type arrivals struct {
		at     map[int64]time.Time
		deltas []serve.Delta
	}
	watch := func(sub *serve.Subscription, keep bool) (*arrivals, *sync.WaitGroup) {
		ar := &arrivals{at: map[int64]time.Time{}}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range sub.C {
				if !d.Bin.IsZero() {
					ar.at[d.Bin.Unix()] = time.Now()
				}
				if keep {
					ar.deltas = append(ar.deltas, d)
				}
			}
		}()
		return ar, &wg
	}
	fsub := c.f.Subscribe()
	farr, fwg := watch(fsub, false)
	psub := c.pub.Subscribe()
	parr, pwg := watch(psub, e.layerRun)

	fixed, mags := readURLs(c.a, fx)
	rd := newReader(c.fts.URL)
	defer rd.close()
	stopRead := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go rd.openLoop(e.tr, root, readRate, urlMix(fixed, mags, e.seed), stopRead, &rwg)

	handed := make(map[int64]time.Time, 256)
	closeDur := make([]float64, 0, 256)
	seqLag := 0
	cpu0, t0 := cpuSeconds(), time.Now()
	feed := e.tr.begin("chain.feed", root)
	for i, b := range fx.batches {
		if !fx.boundary[i] {
			c.a.ObserveBatch(b)
			c.pub.ObserveResults(len(b))
			continue
		}
		// This one-result batch opens a new bin, so ingesting it closes
		// the previous one: detectors, aggregator, commit, publish, feed.
		closing := fx.batches[i-1][0].Time.Truncate(time.Hour).Unix()
		if lag := int(c.pub.Snapshot().Seq) - int(c.f.Snapshot().Seq); lag > seqLag {
			seqLag = lag
		}
		sp := e.tr.begin("core.ObserveBatch.close", feed)
		now := time.Now()
		handed[closing] = now
		c.a.ObserveBatch(b)
		closeDur = append(closeDur, ms(time.Since(now)))
		e.tr.end(sp)
		c.pub.ObserveResults(1)
	}
	sp := e.tr.begin("core.Flush", feed)
	c.a.Flush()
	e.tr.end(sp)
	sp = e.tr.begin("serve.Finish", feed)
	c.pub.Finish(nil)
	e.tr.end(sp)
	e.tr.end(feed)
	s := sample{ops: fx.results(), wall: time.Since(t0)}
	s.cpu = cpuSeconds() - cpu0

	sp = e.tr.begin("follower.drain", root)
	ferr := c.waitFollower(30 * time.Second)
	e.tr.end(sp)
	close(stopRead)
	rwg.Wait()
	fsub.Cancel()
	psub.Cancel()
	fwg.Wait()
	pwg.Wait()
	s.stateMB = heapMB() - base
	e.tr.end(root)

	var lags []float64
	missing := 0
	for bin, t := range handed {
		fa, ok := farr.at[bin]
		if !ok {
			missing++
			continue
		}
		lags = append(lags, ms(fa.Sub(t)))
		if pa, ok := parr.at[bin]; ok {
			w.replMS = append(w.replMS, ms(fa.Sub(pa)))
			w.closePubMS = append(w.closePubMS, ms(pa.Sub(t)))
		}
	}
	s.latencyMS = median(lags)
	w.lagMS = append(w.lagMS, lags...)
	w.p95s = append(w.p95s, percentile(lags, 95))
	w.commitMS = append(w.commitMS, closeDur...)
	if seqLag > w.seqLagMax {
		w.seqLagMax = seqLag
	}
	w.resyncs += int(c.resyncs.Load())
	for _, d := range parr.deltas {
		w.deltaBytes = append(w.deltaBytes, float64(deltaSize(d)))
	}
	w.lastStore = dir
	badReads := 0
	recs := rd.since(0)
	for _, r := range recs {
		w.readUS = append(w.readUS, us(r.latency))
		w.readBytes = append(w.readBytes, float64(r.bytes))
		if !r.ok {
			badReads++
		}
	}
	w.reads += len(recs)
	w.readLate = max(w.readLate, rd.late)

	// Correctness: the pass's ledger first, then byte-identity of every
	// read endpoint between writer and follower, then durability.
	e.op(fx.results(), 0)
	e.op(len(recs), badReads)
	e.verify("chain.reads_ok", badReads == 0, "%d of %d open-loop reads were not a 200", badReads, len(recs))
	e.verify("chain.follower_finished", ferr == nil, "%v", ferr)
	e.verify("chain.no_resyncs_or_gaps", c.resyncs.Load() == 0 && missing == 0,
		"%d follower reconnects, %d closed bins never seen on the follower's feed", c.resyncs.Load(), missing)
	got := outcomeOf(c.a, fx.c.Start, fx.c.End)
	e.verify("digest_equals_workers1_reference", got.Digest == fx.ref.Digest && got.Results == fx.results(),
		"%d results, %d delay alarms, %d events; digest %.12s vs reference %.12s",
		got.Results, len(got.Delay), len(got.Events), got.Digest, fx.ref.Digest)
	fixed, mags = readURLs(c.a, fx)
	urls := append(fixed, mags...)
	want := payloads(c.wsrv.Handler(), urls)
	have := payloads(c.fsrv.Handler(), urls)
	diff := 0
	for _, u := range urls {
		if !bytes.Equal(want[u], have[u]) || len(want[u]) == 0 {
			diff++
		}
	}
	e.verify("chain.follower_bytes_identical", diff == 0, "%d of %d /api payloads differ between writer and follower", diff, len(urls))
	bins := len(handed) + 1 // the last bin is closed by Flush
	ro, err := segstore.OpenReadOnly(dir)
	stored := -1
	if err == nil {
		stored = ro.Len()
		ro.Close()
	}
	e.verify("chain.store_holds_every_bin", stored == bins, "reopened store holds %d of %d closed bins (%v)", stored, bins, err)
	return s, nil
}

// --- read_tier -------------------------------------------------------------

// readWL serves a completed DDoS run from a caught-up follower to W
// closed-loop keep-alive clients; a pass is one 1 s slice of that load.
type readWL struct {
	fx      *ddosFx
	c       *chain
	stateMB float64

	urls []string
	want map[string][]byte

	clients []*reader
	seen    []int // reads of each client already attributed to a slice
	stop    chan struct{}
	wg      sync.WaitGroup

	readUS, readBytes  []float64
	reads, notModified int
}

func (w *readWL) setup(e *env) error {
	fx, err := buildDDoS(e.sc, e.seed, W)
	if err != nil {
		return err
	}
	w.fx = fx
	e.adopt(fx.checks)
	base := heapMB()
	c, err := startChain(fx, W, filepath.Join(e.tmp, "store-read"))
	if err != nil {
		return err
	}
	w.c = c
	for _, b := range fx.batches {
		c.a.ObserveBatch(b)
		c.pub.ObserveResults(len(b))
	}
	c.a.Flush()
	c.pub.Finish(nil)
	if err := c.waitFollower(30 * time.Second); err != nil {
		return err
	}
	w.stateMB = heapMB() - base
	e.op(fx.results(), 0)
	got := outcomeOf(c.a, fx.c.Start, fx.c.End)
	e.verify("digest_equals_workers1_reference", got.Digest == fx.ref.Digest, "digest %.12s vs reference %.12s", got.Digest, fx.ref.Digest)

	fixed, mags := readURLs(c.a, fx)
	w.urls = append(fixed, mags...)
	w.want = payloads(c.wsrv.Handler(), w.urls)
	for _, u := range w.urls {
		if len(w.want[u]) == 0 {
			return fmt.Errorf("writer returned an empty body for %s", u)
		}
	}
	return nil
}

func (w *readWL) teardown() {
	w.stopClients()
	if w.c != nil {
		w.c.stop()
		w.c = nil
	}
	w.fx = nil
}

// startClients launches the W closed-loop clients. Each walks the URL mix
// from its own seeded offset; one read in five is a revalidation carrying
// the ETag the same client got for that URL earlier.
func (w *readWL) startClients(e *env) {
	w.stop = make(chan struct{})
	w.seen = make([]int, W)
	for ci := 0; ci < W; ci++ {
		rd := newReader(w.c.fts.URL)
		w.clients = append(w.clients, rd)
		rng := rand.New(rand.NewPCG(e.seed, uint64(ci)+0x72656164))
		fixed, mags := w.urls[:4], w.urls[4:]
		order := rng.Perm(len(mags))
		etags := map[string]string{}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for i := rng.IntN(5); ; i++ {
				select {
				case <-w.stop:
					return
				default:
				}
				// status / delay page / forwarding page / events /
				// magnitude?asn= (rotating).
				var u string
				if i%5 == 4 {
					u = mags[order[(i/5)%len(order)]]
				} else {
					u = fixed[i%5]
				}
				etag := ""
				if rng.IntN(5) == 0 {
					etag = etags[u]
				}
				if served := rd.get(e.tr, 0, u, etag, w.want[u], time.Now()); served != "" {
					etags[u] = served
				}
			}
		}()
	}
}

func (w *readWL) stopClients() {
	if w.stop == nil {
		return
	}
	close(w.stop)
	w.wg.Wait()
	for _, rd := range w.clients {
		rd.close()
	}
	w.stop, w.clients = nil, nil
}

// pass measures one 1 s slice of the running load.
func (w *readWL) pass(e *env, id int) (sample, error) {
	if w.stop == nil {
		w.startClients(e)
	}
	root := e.tr.begin("pass", 0)
	for i, rd := range w.clients {
		w.seen[i] += len(rd.since(w.seen[i])) // reads between slices belong to none
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	time.Sleep(time.Second)
	s := sample{wall: time.Since(t0), stateMB: w.stateMB}
	s.cpu = cpuSeconds() - cpu0
	e.tr.end(root)

	// Every read counts for throughput; the latency a reader feels is
	// taken on full reads of the delay-alarm page alone, because the mix's
	// own median sits on the cliff between its light and heavy endpoints.
	var lat, pageLat []float64
	bad := 0
	for i, rd := range w.clients {
		recs := rd.since(w.seen[i])
		w.seen[i] += len(recs)
		for _, r := range recs {
			lat = append(lat, us(r.latency))
			if r.url == delayPage && r.status == http.StatusOK {
				pageLat = append(pageLat, us(r.latency))
			}
			w.readBytes = append(w.readBytes, float64(r.bytes))
			if r.status == http.StatusNotModified {
				w.notModified++
			}
			if !r.ok {
				bad++
			}
		}
	}
	s.ops = len(lat)
	s.latencyMS = median(pageLat) / 1000
	w.readUS = append(w.readUS, lat...)
	w.reads += len(lat)
	e.op(len(lat), bad)
	e.verify("read.bodies_equal_writer", bad == 0, "%d of %d reads were not a 200 with the writer's exact bytes (or a 304 on revalidation)", bad, len(lat))
	if len(pageLat) == 0 {
		return s, fmt.Errorf("no page read completed in a 1 s slice")
	}
	return s, nil
}
