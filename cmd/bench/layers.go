package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/engine"
	"pinpoint/internal/events"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ident"
	"pinpoint/internal/ingest"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/segstore"
	"pinpoint/internal/serve"
	"pinpoint/internal/stats"
	"pinpoint/internal/trace"
)

// The per-layer probes: each calls one layer's exported functions in
// isolation on the workload's own fixture and times it from outside. Only
// the layers a workload exercises are probed on it, so a bypassed layer
// reports zero work.

// probeInput is a pre-decoded, chronological slice of the workload's
// campaign plus what the detectors need to interpret it.
type probeInput struct {
	rs       []trace.Result
	probeASN func(int) (ipmap.ASN, bool)
	table    *ipmap.Table
	from, to time.Time
	ref      outcome // alarms to replay into the aggregator probe
}

// bins returns the index ranges [lo,hi) of rs that share an hourly bin.
func (in probeInput) bins() [][2]int {
	var out [][2]int
	lo := 0
	for i := 1; i <= len(in.rs); i++ {
		if i == len(in.rs) || in.rs[i].Time.Unix()/3600 != in.rs[lo].Time.Unix()/3600 {
			out = append(out, [2]int{lo, i})
			lo = i
		}
	}
	return out
}

// probePipeline measures ident, ipmap, delay, forwarding, stats, engine,
// core and events on in.
func probePipeline(in probeInput, seed uint64, m map[string]float64) {
	n := len(in.rs)
	if n == 0 {
		return
	}
	bins := in.bins()

	// ident: intern every address a result carries, as extraction does.
	{
		intern := ident.NewInterner(ident.NewRegistry())
		t0 := time.Now()
		for i := range in.rs {
			r := &in.rs[i]
			intern.Addr(r.Dst)
			for h := range r.Hops {
				for _, rep := range r.Hops[h].Replies {
					if !rep.Timeout {
						intern.Addr(rep.From)
					}
				}
			}
		}
		m["ident.intern_ns_per_result"] = perOp(float64(time.Since(t0)), n)
	}

	// ipmap: longest-prefix match over every distinct address seen.
	{
		seen := map[netip.Addr]struct{}{}
		for i := range in.rs {
			for _, h := range in.rs[i].Hops {
				for _, rep := range h.Replies {
					if !rep.Timeout && rep.From.IsValid() {
						seen[rep.From] = struct{}{}
					}
				}
			}
		}
		addrs := make([]netip.Addr, 0, len(seen))
		for a := range seen {
			addrs = append(addrs, a)
		}
		rounds := 200_000/max(1, len(addrs)) + 1
		hits := 0
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for _, a := range addrs {
				if _, ok := in.table.Lookup(a); ok {
					hits++
				}
			}
		}
		m["ipmap.lookup_ns"] = perOp(float64(time.Since(t0)), rounds*len(addrs))
		_ = hits
	}

	// delay and forwarding: extraction alone, then the sequential detector
	// with every bin close timed on its own.
	{
		intern := ident.NewInterner(ident.NewRegistry())
		samples := 0
		t0 := time.Now()
		for i := range in.rs {
			delay.ExtractSamples(intern, in.rs[i], in.probeASN, func(delay.Sample) { samples++ })
		}
		m["delay.extract_ns_per_result"] = perOp(float64(time.Since(t0)), n)
		m["delay.samples_per_result"] = perOp(float64(samples), n)

		det := delay.NewDetector(delay.Config{}, in.probeASN)
		var observe time.Duration
		var closes []float64
		alarms := 0
		for bi, b := range bins {
			lo := b[0]
			if bi > 0 { // the first result of a bin closes the previous one
				t := time.Now()
				alarms += len(det.Observe(in.rs[lo]))
				closes = append(closes, ms(time.Since(t)))
				lo++
			}
			t := time.Now()
			for i := lo; i < b[1]; i++ {
				det.Observe(in.rs[i])
			}
			observe += time.Since(t)
		}
		t := time.Now()
		alarms += len(det.Flush())
		closes = append(closes, ms(time.Since(t)))
		m["delay.observe_ns_per_result"] = perOp(float64(observe), n-len(bins)+1)
		m["delay.close_ms_p50"] = median(closes)
		m["delay.links_seen"] = float64(det.LinksSeen())
		m["delay.alarms"] = float64(alarms)
	}
	{
		intern := ident.NewInterner(ident.NewRegistry())
		contribs := 0
		t0 := time.Now()
		for i := range in.rs {
			forwarding.ExtractContributions(intern, in.rs[i], func(forwarding.Contribution) { contribs++ })
		}
		m["forwarding.extract_ns_per_result"] = perOp(float64(time.Since(t0)), n)
		m["forwarding.contribs_per_result"] = perOp(float64(contribs), n)

		det := forwarding.NewDetector(forwarding.Config{})
		var observe time.Duration
		var closes []float64
		alarms := 0
		for bi, b := range bins {
			lo := b[0]
			if bi > 0 {
				t := time.Now()
				alarms += len(det.Observe(in.rs[lo]))
				closes = append(closes, ms(time.Since(t)))
				lo++
			}
			t := time.Now()
			for i := lo; i < b[1]; i++ {
				det.Observe(in.rs[i])
			}
			observe += time.Since(t)
		}
		t := time.Now()
		alarms += len(det.Flush())
		closes = append(closes, ms(time.Since(t)))
		m["forwarding.observe_ns_per_result"] = perOp(float64(observe), n-len(bins)+1)
		m["forwarding.close_ms_p50"] = median(closes)
		m["forwarding.routers_seen"] = float64(det.RoutersSeen())
		m["forwarding.alarms"] = float64(alarms)
	}

	// stats: the bin-close kernel on seeded vectors of a link-bin's size.
	{
		rng := rand.New(rand.NewPCG(seed, 0x57a75))
		const vecs, size = 400, 256
		src := make([]float64, vecs*size)
		for i := range src {
			src[i] = 20 + 5*rng.NormFloat64()
		}
		buf := make([]float64, size)
		t0 := time.Now()
		for v := 0; v < vecs; v++ {
			copy(buf, src[v*size:(v+1)*size])
			stats.MedianWilsonSelect(buf, stats.Z95)
		}
		m["stats.median_wilson_ns_per_sample"] = perOp(float64(time.Since(t0)), vecs*size)
	}

	// engine and core, one worker against N: batches of 256 with the first
	// result of each bin alone, so that batch's duration is the bin close.
	type observer interface {
		observe([]trace.Result)
		flush()
	}
	drive := func(o observer) (resultsPerS float64, closeP50 float64, allocs float64) {
		var closes []float64
		m0, t0 := mallocs(), time.Now()
		for bi, b := range bins {
			lo := b[0]
			if bi > 0 {
				t := time.Now()
				o.observe(in.rs[lo : lo+1])
				closes = append(closes, ms(time.Since(t)))
				lo++
			}
			for ; lo < b[1]; lo += 256 {
				o.observe(in.rs[lo:min(lo+256, b[1])])
			}
		}
		o.flush()
		wall := time.Since(t0)
		return float64(n) / wall.Seconds(), median(closes), perOp(float64(mallocs()-m0), n)
	}
	for _, w := range []struct {
		suffix  string
		workers int
	}{{"_w1", 1}, {"_wN", probeWorkers()}} {
		eng := engine.New(engine.Config{Workers: w.workers}, in.probeASN)
		rate, closeP50, allocs := drive(engineObserver{eng})
		eng.Close()
		m["engine.results_per_s"+w.suffix] = rate
		if w.suffix == "_wN" {
			m["engine.close_ms_p50"] = closeP50
			m["engine.allocs_per_result"] = allocs
		}

		a := core.New(core.Config{Workers: w.workers}, in.probeASN, in.table)
		rate, closeP50, _ = drive(coreObserver{a})
		m["core.results_per_s"+w.suffix] = rate
		if w.suffix == "_wN" {
			m["core.close_ms_p50"] = closeP50
			t0 := time.Now()
			evs := a.Aggregator().Events(in.from, in.to)
			m["events.events_us"] = us(time.Since(t0))
			_ = evs
		}
		a.Close()
	}

	// events: the reference alarms replayed into fresh aggregators.
	if alarms := len(in.ref.Delay) + len(in.ref.Fwd); alarms > 0 {
		rounds := 20_000/alarms + 1
		var total time.Duration
		for r := 0; r < rounds; r++ {
			agg := events.NewAggregator(events.Config{}, in.table)
			agg.ObserveBin(in.from)
			t0 := time.Now()
			for _, al := range in.ref.Delay {
				agg.AddDelayAlarm(al)
			}
			for _, al := range in.ref.Fwd {
				agg.AddForwardingAlarm(al)
			}
			total += time.Since(t0)
		}
		m["events.add_ns_per_alarm"] = perOp(float64(total), rounds*alarms)
	}
}

type engineObserver struct{ e *engine.Engine }

func (o engineObserver) observe(rs []trace.Result) { o.e.ObserveBatch(rs) }
func (o engineObserver) flush()                    { o.e.Flush() }

type coreObserver struct{ a *core.Analyzer }

func (o coreObserver) observe(rs []trace.Result) { o.a.ObserveBatch(rs) }
func (o coreObserver) flush()                    { o.a.Flush() }

// errSampleFull stops a producer once the probe sample is collected.
var errSampleFull = errors.New("sample collected")

func (w *pipelineWL) layers(e *env, m map[string]float64) error {
	fx := w.fx
	ctx := context.Background()
	sampleEnd := fx.start.Add(time.Duration(e.sc.SampleHours) * time.Hour)
	in := probeInput{probeASN: fx.plat.ProbeASN, table: fx.net.Prefixes(), from: fx.start, to: sampleEnd, ref: fx.ref}

	if w.replay {
		// ingest: the whole file through the decoder alone, one worker
		// against N.
		for _, c := range []struct {
			key     string
			workers int
		}{{"ingest.results_per_s_w1", 1}, {"ingest.results_per_s_wN", probeWorkers()}} {
			t0 := time.Now()
			st, err := ingest.Files(ctx, []string{fx.ndjson}, ingest.Options{Workers: c.workers}, func([]trace.Result) error { return nil })
			if err != nil {
				return err
			}
			m[c.key] = float64(st.Results) / time.Since(t0).Seconds()
			m["ingest.skipped_lines"] += float64(st.Skipped)
		}
		m["trace.bytes_per_result"] = perOp(float64(fx.ndjsonSize), fx.results())
		m["trace.encode_ns_per_result"] = perOp(float64(fx.encodeDur), fx.results())

		// The probe sample is the file's first hours, decoded.
		_, err := ingest.Files(ctx, []string{fx.ndjson}, ingest.Options{Workers: probeWorkers()}, func(rs []trace.Result) error {
			for _, r := range rs {
				if !r.Time.Before(sampleEnd) {
					return errSampleFull
				}
				in.rs = append(in.rs, r)
			}
			return nil
		})
		if err != nil && !errors.Is(err, errSampleFull) {
			return err
		}

		// trace: the sample re-encoded to lines, then one Decoder over them.
		lines := make([][]byte, len(in.rs))
		for i, r := range in.rs {
			if lines[i], err = trace.AppendResult(nil, r); err != nil {
				return err
			}
		}
		var dec trace.Decoder
		var dst trace.Result
		m0, t0 := mallocs(), time.Now()
		for _, l := range lines {
			if err := dec.Decode(l, &dst); err != nil {
				return err
			}
		}
		m["trace.decode_ns_per_result"] = perOp(float64(time.Since(t0)), len(lines))
		m["trace.decode_allocs_per_result"] = perOp(float64(mallocs()-m0), len(lines))
	} else {
		// atlas: the sample window through the generator alone, one worker
		// against N; the last run's output is the probe sample.
		for _, c := range []struct {
			key     string
			workers int
		}{{"atlas.gen_ns_per_result_w1", 1}, {"atlas.gen_ns_per_result_wN", probeWorkers()}} {
			fx.plat.SetWorkers(c.workers)
			in.rs = in.rs[:0]
			m0, t0 := mallocs(), time.Now()
			err := fx.plat.RunChunks(ctx, fx.start, sampleEnd, 0, func(rs []trace.Result) error {
				in.rs = append(in.rs, rs...)
				return nil
			})
			if err != nil {
				return err
			}
			m[c.key] = perOp(float64(time.Since(t0)), len(in.rs))
			m["atlas.gen_allocs_per_result"] = perOp(float64(mallocs()-m0), len(in.rs))
		}
	}
	probePipeline(in, e.seed, m)
	return nil
}

// deltaSize is the delta's size on the feed (its SSE data line).
func deltaSize(d serve.Delta) int {
	b, err := json.Marshal(d)
	if err != nil {
		return 0
	}
	return len(b)
}

// sinkWriter is the cheapest http.ResponseWriter: it counts body bytes
// and keeps nothing, so what the handler probe measures is the handler.
type sinkWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) WriteHeader(status int)      { w.status = status }
func (w *sinkWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// probeHandler times the follower's routing table directly: ServeHTTP into
// a sink, no sockets, requests built beforehand, in read_tier's rotation
// (the four fixed endpoints, then one magnitude series).
func probeHandler(h http.Handler, fixed, mags []string, m map[string]float64) {
	const reads = 2000
	reqs := make([]*http.Request, 0, 5*len(mags))
	for _, mag := range mags {
		for _, u := range append(fixed[:len(fixed):len(fixed)], mag) {
			reqs = append(reqs, httptest.NewRequest(http.MethodGet, u, nil))
		}
	}
	lat := make([]float64, 0, reads)
	w := &sinkWriter{h: http.Header{}}
	m0 := mallocs()
	for i := 0; i < reads; i++ {
		clear(w.h)
		t0 := time.Now()
		h.ServeHTTP(w, reqs[i%len(reqs)])
		lat = append(lat, us(time.Since(t0)))
	}
	m["serve.handler_allocs_per_read"] = perOp(float64(mallocs()-m0), reads)
	m["serve.handler_us_p50"] = median(lat)
	m["serve.handler_us_p99"] = percentile(lat, 99)
}

// probeCatchUp times a fresh follower against the completed writer: dial,
// replay of the whole history, terminal delta.
func probeCatchUp(c *chain, m map[string]float64) error {
	f, err := c.newFollower()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	if err := f.Run(ctx); err != nil {
		return err
	}
	m["follower.catchup_ms"] = ms(time.Since(t0))
	return nil
}

func readMetrics(readUS, readBytes []float64, reads, notModified int, m map[string]float64) {
	m["serve.read_us_p50"] = median(readUS)
	m["serve.read_us_p99"] = percentile(readUS, 99)
	m["serve.bytes_per_read"] = perOp(sum(readBytes), len(readBytes))
	m["serve.not_modified_ratio"] = perOp(float64(notModified), reads)
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func (w *chainWL) layers(e *env, m map[string]float64) error {
	fx := w.fx
	probePipeline(probeInput{
		rs: fx.rs, probeASN: fx.plat.ProbeASN, table: fx.c.Net.Prefixes(),
		from: fx.c.Start, to: fx.c.End, ref: fx.ref,
	}, e.seed, m)

	// What the end-to-end passes of this run observed.
	m["chain.visible_lag_ms_p95"] = median(w.p95s)
	m["chain.visible_lag_ms_p99"] = percentile(w.lagMS, 99)
	m["chain.close_publish_ms_p50"] = median(w.closePubMS)
	m["feed.replicate_ms_p50"] = median(w.replMS)
	m["feed.replicate_ms_p95"] = percentile(w.replMS, 95)
	m["feed.bytes_per_delta"] = perOp(sum(w.deltaBytes), len(w.deltaBytes))
	m["follower.seq_lag_max"] = float64(w.seqLagMax)
	m["follower.resyncs"] = float64(w.resyncs)
	m["serve.publish_commit_ms_p50"] = median(w.commitMS) - m["core.close_ms_p50"]
	m["chain.read_late_ms_max"] = ms(w.readLate)
	readMetrics(w.readUS, w.readBytes, w.reads, 0, m) // the open-loop reader never revalidates

	// One more complete run, kept up: its store for the segstore probes,
	// its follower's handler, and a fresh follower's catch-up.
	dir := filepath.Join(e.tmp, "store-layers")
	c, err := startChain(fx, W, dir)
	if err != nil {
		return err
	}
	defer c.stop()
	for _, b := range fx.batches {
		c.a.ObserveBatch(b)
	}
	c.a.Flush()
	c.pub.Finish(nil)
	if err := c.waitFollower(30 * time.Second); err != nil {
		return err
	}
	fixed, mags := readURLs(c.a, fx)
	probeHandler(c.fsrv.Handler(), fixed, mags, m)
	if err := probeCatchUp(c, m); err != nil {
		return err
	}
	return probeStore(dir, filepath.Join(e.tmp, "store-reappend"), m)
}

// probeStore reopens the run's own store read-only, reads every record
// back, and re-appends them to a fresh store; fsync time is this sandbox's
// filesystem, bytes per bin are exact.
func probeStore(dir, fresh string, m map[string]float64) error {
	t0 := time.Now()
	ro, err := segstore.OpenReadOnly(dir)
	if err != nil {
		return err
	}
	defer ro.Close()
	m["segstore.open_ms"] = ms(time.Since(t0))

	if err := os.MkdirAll(fresh, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(fresh)
	rw, err := segstore.Open(fresh)
	if err != nil {
		return err
	}
	defer rw.Close()
	var reads, appends []float64
	bytes := 0
	var rec segstore.BinRecord
	for i := 0; i < ro.Len(); i++ {
		t := time.Now()
		if err := ro.Record(i, &rec); err != nil {
			return err
		}
		reads = append(reads, us(time.Since(t)))
		p, err := ro.Payload(i)
		if err != nil {
			return err
		}
		bytes += len(p)
		t = time.Now()
		if err := rw.Append(&rec); err != nil {
			return err
		}
		appends = append(appends, us(time.Since(t)))
	}
	m["segstore.record_read_us_p50"] = median(reads)
	m["segstore.append_us_p50"] = median(appends)
	m["segstore.bytes_per_bin"] = perOp(float64(bytes), ro.Len())
	return nil
}

func (w *readWL) layers(e *env, m map[string]float64) error {
	readMetrics(w.readUS, w.readBytes, w.reads, w.notModified, m)
	w.stopClients() // the handler probe wants the process to itself
	probeHandler(w.c.fsrv.Handler(), w.urls[:4], w.urls[4:], m)
	return probeCatchUp(w.c, m)
}
