package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/core"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

// TestConcurrentReadsDuringIngest hammers every endpoint from several
// goroutines while the analysis goroutine ingests a live run — the
// snapshot model's core claim, checked under -race in CI: handlers share
// no lock with ObserveBatch, and every response is exactly its snapshot's.
func TestConcurrentReadsDuringIngest(t *testing.T) {
	topo, err := netsim.Generate(netsim.TopoConfig{
		Seed: 77, Tier1: 2, Transit: 5, Stub: 20,
		Roots: 1, RootInstances: 3, Anchors: 2, IXPs: 1, IXPMembers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2015, 11, 28, 0, 0, 0, 0, time.UTC)
	sc := netsim.NewScenario(netsim.Event{
		Name: "ddos", Kind: netsim.EventCongestion,
		From: topo.Roots[0].Sites[0], To: topo.Roots[0].Instances[0], Both: true,
		ExtraDelayMS: 60, Loss: 0.02,
		Start: start.Add(3 * time.Hour), End: start.Add(5 * time.Hour),
	})
	n, err := topo.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	p := atlas.NewPlatform(n, 99, netsim.TracerouteOpts{})
	p.AddProbes(topo.ProbeSites())
	p.AddBuiltin(topo.Roots[0].Addr)

	end := start.Add(8 * time.Hour)
	a := core.New(core.Config{Workers: 2}, p.ProbeASN, n.Prefixes())
	defer a.Close()
	pub := NewPublisher(a, Meta{Case: "race", Description: "race harness", Start: start, End: end})
	srv := NewServer(pub, Options{Logf: func(string, ...any) {}})

	var analysisDone atomic.Bool
	runErr := make(chan error, 1)
	go func() {
		err := p.RunChunks(context.Background(), start, end, 0, func(rs []trace.Result) error {
			a.ObserveBatch(rs)
			pub.ObserveResults(len(rs))
			return nil
		})
		a.Flush()
		pub.Finish(err)
		analysisDone.Store(true)
		runErr <- err
	}()

	// Every list, magnitude, ranged and paged body is compared with the
	// oracle for the very snapshot it was served from (pinned), so readers
	// racing stream extension against each other and against bin closes must
	// still see exactly their snapshot's prefix.
	from := start.Add(2 * time.Hour).Format(time.RFC3339)
	to := start.Add(6 * time.Hour).Format(time.RFC3339)
	urls := []string{
		"/api/status",
		"/api/alarms/delay",
		"/api/alarms/forwarding",
		"/api/events",
		"/api/magnitude?asn=%d",
		"/api/magnitude?asn=%d&from=" + from + "&to=" + to,
		"/api/magnitude?asn=%d&from=" + to,
		"/api/alarms/delay?limit=5",
		"/api/alarms/delay?limit=5&cursor=3",
		"/api/events?limit=2&from=" + from,
		"/",
	}
	var wg sync.WaitGroup
	var reads atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !analysisDone.Load() || i < 50; i++ {
				snap := pub.Snapshot()
				url := urls[(g+i)%len(urls)]
				if strings.Contains(url, "%d") {
					asn := ipmap.ASN(1)
					for k := range snap.delayMag {
						asn = max(asn, k)
					}
					url = fmt.Sprintf(url, uint32(asn))
				}
				if url == "/" || url == "/api/status" {
					if rec := getPinned(pub, snap, url); rec.Code != 200 {
						t.Errorf("%s: status %d", url, rec.Code)
						return
					}
				} else {
					checkAgainstOracle(t, pub, snap, url)
				}
				if t.Failed() {
					return
				}
				reads.Add(1)
				if analysisDone.Load() && i >= 50 {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatal("no reads executed")
	}
	if fin := pub.Snapshot(); len(fin.DelayAlarms) == 0 || len(fin.delayMag) == 0 {
		t.Fatalf("vacuous run: %d delay alarms, %d magnitude series", len(fin.DelayAlarms), len(fin.delayMag))
	}

	// After completion the served state is the full analysis.
	var st struct {
		Done    bool `json:"done"`
		Results int  `json:"results"`
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/status", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Results != a.Results() {
		t.Errorf("final status done=%v results=%d (analyzer %d)", st.Done, st.Results, a.Results())
	}
}
