package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/core"
	"pinpoint/internal/experiments"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

// benchWorkload is a pre-generated 6-hour campaign replayed (with shifted
// timestamps) as an endless chronological ingest feed.
type benchWorkload struct {
	results []trace.Result
	span    time.Duration
	start   time.Time
	table   func() *core.Analyzer // fresh analyzer factory
}

var (
	benchOnce sync.Once
	benchWL   *benchWorkload
)

func benchData(b *testing.B) *benchWorkload {
	b.Helper()
	benchOnce.Do(func() {
		topo, err := netsim.Generate(netsim.TopoConfig{
			Seed: 77, Tier1: 2, Transit: 5, Stub: 20,
			Roots: 1, RootInstances: 3, Anchors: 2, IXPs: 1, IXPMembers: 4,
		})
		if err != nil {
			panic(err)
		}
		n, err := topo.Build(nil)
		if err != nil {
			panic(err)
		}
		p := atlas.NewPlatform(n, 99, netsim.TracerouteOpts{})
		p.AddProbes(topo.ProbeSites())
		p.AddBuiltin(topo.Roots[0].Addr)
		start := time.Date(2015, 11, 28, 0, 0, 0, 0, time.UTC)
		end := start.Add(6 * time.Hour)
		var all []trace.Result
		err = p.RunChunks(context.Background(), start, end, 0, func(rs []trace.Result) error {
			all = append(all, rs...)
			return nil
		})
		if err != nil {
			panic(err)
		}
		benchWL = &benchWorkload{
			results: all,
			span:    end.Sub(start).Round(time.Hour) + time.Hour,
			start:   start,
			table: func() *core.Analyzer {
				return core.New(core.Config{}, p.ProbeASN, n.Prefixes())
			},
		}
	})
	return benchWL
}

// feedForever replays the workload in chronological laps (each lap shifted
// by the span) in batches of batchSize until stop closes. Returns the total
// results ingested.
func (wl *benchWorkload) feedForever(a *core.Analyzer, pub *Publisher, batchSize int, stop <-chan struct{}) *atomic.Int64 {
	var total atomic.Int64
	go func() {
		buf := make([]trace.Result, 0, batchSize)
		for lap := 0; ; lap++ {
			shift := time.Duration(lap) * wl.span
			for i := 0; i < len(wl.results); i += batchSize {
				select {
				case <-stop:
					return
				default:
				}
				end := i + batchSize
				if end > len(wl.results) {
					end = len(wl.results)
				}
				buf = buf[:0]
				for _, r := range wl.results[i:end] {
					r.Time = r.Time.Add(shift)
					buf = append(buf, r)
				}
				a.ObserveBatch(buf)
				if pub != nil {
					pub.ObserveResults(len(buf))
				}
				total.Add(int64(len(buf)))
			}
		}
	}()
	return &total
}

var benchURLs = []string{
	"/api/alarms/delay",
	"/api/events",
	"/api/status",
	"/api/magnitude?asn=1",
}

// BenchmarkServeReads measures handler latency per read. The sub-benchmarks
// vary what the analysis side is doing — nothing, small batches, huge
// batches. With snapshot publication the read path takes no lock shared
// with ObserveBatch, so ns/op and the reported p99 must stay flat across
// all three (the acceptance claim: read latency independent of batch size).
func BenchmarkServeReads(b *testing.B) {
	wl := benchData(b)
	for _, bc := range []struct {
		name  string
		batch int // 0 = no concurrent ingest
	}{
		{"idle", 0},
		{"ingest-batch=256", 256},
		{"ingest-batch=8192", 8192},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := wl.table()
			defer a.Close()
			pub := NewPublisher(a, Meta{Case: "bench", Start: wl.start, End: wl.start.Add(wl.span)})
			srv := NewServer(pub, Options{Logf: func(string, ...any) {}})
			h := srv.Handler()
			if bc.batch > 0 {
				stop := make(chan struct{})
				defer close(stop)
				wl.feedForever(a, pub, bc.batch, stop)
			} else {
				// Serve a realistic completed state rather than empty slices.
				stop := make(chan struct{})
				total := wl.feedForever(a, pub, 1024, stop)
				for total.Load() < int64(len(wl.results)) {
					time.Sleep(time.Millisecond)
				}
				close(stop)
			}

			var mu sync.Mutex
			var lats []time.Duration
			var idx atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				local := make([]time.Duration, 0, 1024)
				for pb.Next() {
					url := benchURLs[int(idx.Add(1))%len(benchURLs)]
					req := httptest.NewRequest("GET", url, nil)
					rec := httptest.NewRecorder()
					t0 := time.Now()
					h.ServeHTTP(rec, req)
					local = append(local, time.Since(t0))
					if rec.Code != 200 {
						b.Errorf("%s: status %d", url, rec.Code)
					}
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			})
			b.StopTimer()
			if len(lats) > 0 {
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				p99 := lats[len(lats)*99/100]
				b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
				b.ReportMetric(float64(len(lats))/b.Elapsed().Seconds(), "reads/s")
			}
		})
	}

	// Per-endpoint handler cost on a completed ddos run (the quiet workload
	// above raises no alarm, so its lists and series are empty): the request
	// is built beforehand and the writer keeps nothing, so -benchmem's
	// allocs/op are the handler's own (the CI bench-smoke line prints them).
	c, err := experiments.NewCase("ddos", experiments.Quick)
	if err != nil {
		b.Fatal(err)
	}
	a := core.New(core.Config{}, c.Platform.ProbeASN, c.Net.Prefixes())
	defer a.Close()
	pub := NewPublisher(a, Meta{Case: c.Name, Start: c.Start, End: c.End})
	err = c.Platform.RunChunks(context.Background(), c.Start, c.End, 0, func(rs []trace.Result) error {
		a.ObserveBatch(rs)
		return nil
	})
	a.Flush()
	pub.Finish(err)
	if err != nil {
		b.Fatal(err)
	}
	h := NewServer(pub, Options{Logf: func(string, ...any) {}}).Handler()
	asn := ipmap.ASN(1)
	for k := range pub.Snapshot().delayMag {
		asn = max(asn, k)
	}
	mag := fmt.Sprintf("/api/magnitude?asn=%d", uint32(asn))
	for _, url := range []string{
		mag,
		mag + "&from=" + c.Start.Add(48*time.Hour).Format(time.RFC3339) + "&to=" + c.Start.Add(72*time.Hour).Format(time.RFC3339),
		"/api/alarms/delay?limit=100",
	} {
		b.Run("endpoint="+url, func(b *testing.B) {
			req := httptest.NewRequest("GET", url, nil)
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			for b.Loop() {
				clear(w.h)
				h.ServeHTTP(w, req)
			}
			if w.status != 0 {
				b.Errorf("%s: status %d", url, w.status)
			}
		})
	}
}

// BenchmarkReplicaReads measures the read tier the writer/replica split
// buys: one writer completes a run, N followers converge on byte-identical
// terminal snapshots over the replication feed, and the readers fan out
// across the replica handlers round-robin. Reported are the fleet-wide
// aggregate reads/s and the p99 of a single read. (On a single-core
// container the replicas share that core, so aggregate throughput stays
// flat with N; the numbers demonstrate per-replica read cost, while the
// scaling claim needs one core per replica.)
func BenchmarkReplicaReads(b *testing.B) {
	wl := benchData(b)
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			a := wl.table()
			defer a.Close()
			pub := NewPublisher(a, Meta{Case: "bench", Start: wl.start, End: wl.start.Add(wl.span)})
			wsrv := NewServer(pub, Options{Logf: func(string, ...any) {}})
			ts := httptest.NewServer(wsrv.Handler())
			defer ts.Close()

			const batch = 1024
			for i := 0; i < len(wl.results); i += batch {
				end := i + batch
				if end > len(wl.results) {
					end = len(wl.results)
				}
				a.ObserveBatch(wl.results[i:end])
				pub.ObserveResults(end - i)
			}
			a.Flush()
			pub.Finish(nil)

			handlers := make([]http.Handler, replicas)
			for r := 0; r < replicas; r++ {
				f, err := NewFollower(FollowerOptions{URL: ts.URL})
				if err != nil {
					b.Fatal(err)
				}
				// The run is complete: Run returns once the follower has
				// caught up through the terminal delta.
				if err := f.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				if !f.Snapshot().Complete() {
					b.Fatal("follower did not reach the terminal snapshot")
				}
				handlers[r] = NewServer(f, Options{Logf: func(string, ...any) {}}).Handler()
			}

			var mu sync.Mutex
			var lats []time.Duration
			var idx atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				local := make([]time.Duration, 0, 1024)
				for pb.Next() {
					i := int(idx.Add(1))
					url := benchURLs[i%len(benchURLs)]
					h := handlers[i%replicas]
					req := httptest.NewRequest("GET", url, nil)
					rec := httptest.NewRecorder()
					t0 := time.Now()
					h.ServeHTTP(rec, req)
					local = append(local, time.Since(t0))
					if rec.Code != 200 {
						b.Errorf("%s: status %d", url, rec.Code)
					}
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			})
			b.StopTimer()
			if len(lats) > 0 {
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				p99 := lats[len(lats)*99/100]
				b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
				b.ReportMetric(float64(len(lats))/b.Elapsed().Seconds(), "reads/s")
			}
		})
	}
}

// BenchmarkServeIngest measures analysis throughput bare versus under
// sustained concurrent read pressure — the "readers cannot stall the
// pipeline" half of the claim. cmd/bench's ihr_chain workload records the
// same pipeline under a 200 req/s reader (cmd/bench/results/set-a.json).
func BenchmarkServeIngest(b *testing.B) {
	wl := benchData(b)
	for _, readers := range []int{0, 4} {
		name := "alone"
		if readers > 0 {
			name = "with-4-readers"
		}
		b.Run(name, func(b *testing.B) {
			a := wl.table()
			defer a.Close()
			pub := NewPublisher(a, Meta{Case: "bench", Start: wl.start, End: wl.start.Add(wl.span)})
			srv := NewServer(pub, Options{Logf: func(string, ...any) {}})
			stop := make(chan struct{})
			defer close(stop)
			for g := 0; g < readers; g++ {
				go func(g int) {
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						rec := httptest.NewRecorder()
						srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", benchURLs[(g+i)%len(benchURLs)], nil))
					}
				}(g)
			}

			const batch = 1024
			buf := make([]trace.Result, 0, batch)
			results := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lap := i * batch / len(wl.results)
				off := i * batch % len(wl.results)
				end := off + batch
				if end > len(wl.results) {
					end = len(wl.results)
				}
				shift := time.Duration(lap) * wl.span
				buf = buf[:0]
				for _, r := range wl.results[off:end] {
					r.Time = r.Time.Add(shift)
					buf = append(buf, r)
				}
				a.ObserveBatch(buf)
				pub.ObserveResults(len(buf))
				results += len(buf)
			}
			b.StopTimer()
			b.ReportMetric(float64(results)/b.Elapsed().Seconds(), "results/s")
		})
	}
}

// BenchmarkReplicaCatchUp is a fresh follower's whole catch-up (?since=0)
// against the completed quick ddos writer: every seq cut from the writer's
// snapshot and JSON-encoded as the stream handler sends it, per op.
func BenchmarkReplicaCatchUp(b *testing.B) {
	c, err := experiments.NewCase("ddos", experiments.Quick)
	if err != nil {
		b.Fatal(err)
	}
	a := core.New(core.Config{Workers: 1}, c.Platform.ProbeASN, c.Net.Prefixes())
	defer a.Close()
	pub := NewPublisher(a, Meta{Case: c.Name, Start: c.Start, End: c.End})
	err = c.Platform.RunChunks(context.Background(), c.Start, c.End, 0, func(rs []trace.Result) error {
		a.ObserveBatch(rs)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	a.Flush()
	pub.Finish(nil)
	snap := pub.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		for d := range snap.catchUp(0) {
			enc, err := json.Marshal(d)
			if err != nil {
				b.Fatal(err)
			}
			bytes += len(enc)
		}
	}
	b.ReportMetric(float64(snap.Seq), "deltas/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "wire-B/op")
}
