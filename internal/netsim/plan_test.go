package netsim

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	"pinpoint/internal/trace"
)

// planTasks describes a fresh-Net factory over one topology — a generated
// Internet with anycast roots, plus a probe behind a 3-way ECMP diamond —
// whose scenario puts every event kind on real forward and return paths and
// has four routing epochs, and the task grid over it: every probe × target
// × Paris id 0–15 × instant, the instants spread over the epochs.
func planTasks(t *testing.T, art Artifacts) (build func() *Net, tasks []trTask, at []time.Time) {
	t.Helper()
	topo, err := Generate(TopoConfig{Seed: 11, Tier1: 2, Transit: 4, Stub: 6, Roots: 1, RootInstances: 3, Anchors: 2})
	if err != nil {
		t.Fatal(err)
	}
	sites := topo.ProbeSites()
	b := topo.Builder
	probe := b.Router(topo.Stub[0].ASN, "plan-probe", RouterOpts{ResponseProb: 1})
	for _, name := range []string{"plan-m0", "plan-m1", "plan-m2"} {
		mid := b.Router(topo.Stub[0].ASN, name, RouterOpts{ResponseProb: 1})
		b.Link(probe, mid, LinkOpts{DelayMS: 1, WeightAB: 1, WeightBA: 1})
		b.Link(mid, sites[0], LinkOpts{DelayMS: 1, WeightAB: 1, WeightBA: 1})
	}
	quiet, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Plan the events on the longest forward path of the grid.
	targets := topo.Targets()
	var p []RouterID
	for _, site := range sites {
		for _, dst := range targets {
			if q, ok := quiet.ForwardPath(site, dst, tAt, 0); ok && len(q) > len(p) {
				p = q
			}
		}
	}
	if len(p) < 5 {
		t.Fatalf("longest planning path %v", p)
	}
	r, ok := quiet.ReturnPath(p[len(p)-2], p[0], tAt)
	if !ok || len(r) < 3 {
		t.Fatalf("planning return path %v, %v", r, ok)
	}
	window := func(kind EventKind, from, to int) Event {
		return Event{Kind: kind, Start: tAt.Add(time.Duration(from) * time.Minute), End: tAt.Add(time.Duration(to) * time.Minute)}
	}
	cong, loss, down := window(EventCongestion, 0, 40), window(EventLoss, 10, 50), window(EventLinkDown, 20, 40)
	reroute, silence, hole := window(EventReroute, 30, 60), window(EventSilence, 0, 30), window(EventBlackhole, 10, 60)
	cong.From, cong.To, cong.Both, cong.ExtraDelayMS, cong.Loss = p[1], p[2], true, 20, 0.1
	loss.From, loss.To, loss.Loss = p[1], p[2], 0.1
	down.From, down.To, down.Both = p[len(p)-2], p[len(p)-1], true
	reroute.From, reroute.To, reroute.WeightFactor = p[2], p[3], 40
	silence.Router = p[3]
	hole.Router, hole.Loss = r[len(r)/2], 0.5
	scenario := NewScenario(cong, loss, down, reroute, silence, hole)
	// The first instant is in the epoch with no route event active, the
	// last in one with: a plan built for the wrong epoch shows up in one of
	// the two fill orders.
	for m := -10; m < 60; m += 5 {
		at = append(at, tAt.Add(time.Duration(m)*time.Minute+17*time.Second))
	}
	epochs := map[uint64]bool{}
	for _, a := range at {
		epochs[scenario.EpochKey(a)] = true
	}
	if len(epochs) < 3 {
		t.Fatalf("%d routing epochs, want >= 3", len(epochs))
	}

	b.SetArtifacts(art)
	build = func() *Net {
		n, err := topo.Build(scenario)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	seed := uint64(1)
	for _, pr := range append(sites, probe) {
		for _, dst := range targets {
			for paris := 0; paris < 16; paris++ {
				tasks = append(tasks, trTask{probe: pr, dst: dst, paris: paris, seed: seed})
				seed++
			}
		}
	}
	return build, tasks, at
}

// TestPlansColdEqualsWarm: a route plan is a cache, never an input. For
// every task at every instant (instant-major, as a campaign runs), a fresh
// Net, a Net whose plans were built in
// the reverse order, and four goroutines filling one cold Net's plans
// concurrently give identical Results — with all five artifacts and with
// none.
func TestPlansColdEqualsWarm(t *testing.T) {
	mixes := map[string]Artifacts{
		"none": {},
		"all":  {MultipathProb: 0.5, RouteFlipProb: 0.5, ReorderProb: 0.2, LyingHopProb: 0.2, AliasProb: 0.5},
	}
	for name, art := range mixes {
		t.Run(name, func(t *testing.T) {
			build, tasks, at := planTasks(t, art)
			run := func(n *Net, sc *TracerouteScratch, i int) trace.Result {
				a, task := at[i/len(tasks)], tasks[i%len(tasks)]
				rng := rand.New(rand.NewPCG(task.seed, uint64(i)))
				r, err := n.TracerouteWith(sc, task.probe, task.dst, a, task.paris, rng, TracerouteOpts{})
				if err != nil {
					t.Error(err) // not Fatal: run is called from goroutines too
				}
				return r
			}
			total := len(tasks) * len(at)

			fresh, want := build(), make([]trace.Result, total)
			var sc TracerouteScratch
			for i := range want {
				want[i] = run(fresh, &sc, i)
			}
			// The grid must reach both kinds of plan, and split flows when
			// the artifact is on.
			var static, touched, multipath int
			fresh.plans.Range(func(_, v any) bool {
				p := v.(*plan)
				if p.static {
					static++
				} else {
					touched++
				}
				if p.multipath {
					multipath++
				}
				return true
			})
			if static == 0 || touched == 0 || (art.MultipathProb > 0) != (multipath > 0) {
				t.Fatalf("plans: %d static, %d event-touched, %d multipath", static, touched, multipath)
			}

			warmed := build()
			for i := total - 1; i >= 0; i-- {
				if got := run(warmed, &sc, i); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("reverse-order cold run differs at task %d: %+v vs %+v", i, got, want[i])
				}
			}
			for i := range want {
				if got := run(warmed, &sc, i); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("warm run differs at task %d: %+v vs %+v", i, got, want[i])
				}
			}

			shared, got := build(), make([]trace.Result, total)
			const workers = 4
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var sc TracerouteScratch
					for i := w; i < total; i += workers {
						got[i] = run(shared, &sc, i)
					}
				}(w)
			}
			wg.Wait()
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("concurrently filled run differs at task %d: %+v vs %+v", i, got[i], want[i])
				}
			}
		})
	}
}
