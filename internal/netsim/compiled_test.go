package netsim

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
	"time"
)

// ecmp3Topology builds three equal-cost paths P–M{0,1,2}–C, so flow
// selectors are reduced modulo 3 in both directions.
func ecmp3Topology(t *testing.T) (*Net, map[string]RouterID) {
	t.Helper()
	b := NewBuilder()
	b.AS(100, "probe-as", "10.0.100.0/24")
	b.AS(200, "mid-as", "10.0.200.0/24")
	b.AS(300, "dst-as", "10.1.44.0/24")
	ids := map[string]RouterID{}
	ids["P"] = b.Router(100, "P", RouterOpts{ResponseProb: 1})
	ids["C"] = b.Router(300, "C", RouterOpts{ResponseProb: 1})
	for _, name := range []string{"M0", "M1", "M2"} {
		ids[name] = b.Router(200, name, RouterOpts{ResponseProb: 1})
		b.Link(ids["P"], ids[name], LinkOpts{DelayMS: 1})
		b.Link(ids[name], ids["C"], LinkOpts{DelayMS: 1})
	}
	b.Service("10.1.44.200", 300, "", ids["C"])
	n, err := b.Build(nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n, ids
}

// TestFlowSelectorsUnsigned pins the two flow-selector fixes: a negative
// Paris id selects by its magnitude, including math.MinInt whose negation is
// still negative as an int (it used to index a 3-way ECMP node out of
// range), and the return-path selector is a 64-bit product on every
// platform (as an untyped int constant expression it did not build on
// GOARCH=386).
func TestFlowSelectorsUnsigned(t *testing.T) {
	n, ids := ecmp3Topology(t)
	for _, id := range []int{math.MinInt, math.MinInt + 1, -7, -1, 0, 5, math.MaxInt} {
		path, ok := n.ForwardPath(ids["P"], artDst, tAt, id)
		if !ok || len(path) != 3 || path[0] != ids["P"] || path[2] != ids["C"] {
			t.Fatalf("ForwardPath(paris %d) = %v, %v", id, path, ok)
		}
		if id > math.MinInt && id < 0 {
			if pos, _ := n.ForwardPath(ids["P"], artDst, tAt, -id); pos[1] != path[1] {
				t.Errorf("paris %d takes %v, its magnitude takes %v", id, path, pos)
			}
		}
	}
	if got, want := flowOf(math.MinInt), uint64(1)<<(bits.UintSize-1); got != want {
		t.Errorf("flowOf(MinInt) = %d, want %d", got, want)
	}
	if got := returnFlow(7); got != 18581050327 {
		t.Errorf("returnFlow(7) = %d, want 7·2654435761 = 18581050327", got)
	}
	mids := []RouterID{ids["M0"], ids["M1"], ids["M2"]}
	path, ok := n.ReturnPath(ids["C"], ids["P"], tAt)
	if want := mids[returnFlow(ids["C"])%3]; !ok || len(path) != 3 || path[1] != want {
		t.Errorf("ReturnPath = %v, %v; want via %d", path, ok, want)
	}
	var sc TracerouteScratch
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := n.TracerouteInto(&sc, ids["P"], artDst, tAt, math.MinInt, rng, TracerouteOpts{}); err != nil {
		t.Fatal(err)
	}
}

// eventfulNet is the default generated topology with every event kind placed
// on a real forward path and every artifact switched on.
func eventfulNet(t *testing.T) (*Net, []trTask) {
	t.Helper()
	topo, err := Generate(TopoConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	sites, targets := topo.ProbeSites(), topo.Targets()
	p, ok := quiet.ForwardPath(sites[0], targets[0], tAt, 0)
	if !ok || len(p) < 5 {
		t.Fatalf("planning path %v, %v", p, ok)
	}
	window := func(kind EventKind, from, to int) Event {
		return Event{Kind: kind, Start: tAt.Add(time.Duration(from) * time.Minute), End: tAt.Add(time.Duration(to) * time.Minute)}
	}
	cong, loss, down := window(EventCongestion, -60, 60), window(EventLoss, -30, 90), window(EventLinkDown, 2, 60)
	reroute, silence, hole := window(EventReroute, 4, 60), window(EventSilence, -60, 60), window(EventBlackhole, -60, 60)
	cong.From, cong.To, cong.Both, cong.ExtraDelayMS, cong.Loss = p[1], p[2], true, 20, 0.1
	loss.From, loss.To, loss.Loss = p[1], p[2], 0.1
	down.From, down.To = p[len(p)-2], p[len(p)-1]
	reroute.From, reroute.To, reroute.WeightFactor = p[2], p[3], 40
	silence.Router = p[3]
	hole.Router, hole.Loss = p[2], 0.3
	topo.Builder.SetArtifacts(Artifacts{MultipathProb: 0.5, RouteFlipProb: 0.5, ReorderProb: 0.2, LyingHopProb: 0.1, AliasProb: 0.5})
	n, err := topo.Build(NewScenario(cong, loss, down, reroute, silence, hole))
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]trTask, 0, 100)
	for i := 0; i < 100; i++ {
		tasks = append(tasks, trTask{probe: sites[i%len(sites)], dst: targets[i%len(targets)], paris: i % 16, seed: uint64(i + 1)})
	}
	return n, tasks
}

// TestTracerouteAllocationPins: a warm TracerouteInto allocates nothing even
// with scenario events on the path and every artifact on (slow traces
// recompile their legs per hop into the scratch), and TracerouteWith adds
// exactly the result's two slices.
func TestTracerouteAllocationPins(t *testing.T) {
	n, tasks := eventfulNet(t)
	var sc TracerouteScratch
	pcg := rand.NewPCG(0, 0)
	rng := rand.New(pcg)
	run := func(trace func(task trTask) error) func() {
		return func() {
			for _, task := range tasks {
				pcg.Seed(task.seed, 1)
				if err := trace(task); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	into := run(func(task trTask) error {
		_, err := n.TracerouteInto(&sc, task.probe, task.dst, tAt, task.paris, rng, TracerouteOpts{})
		return err
	})
	into() // warm: scratch high-water mark and the trees of every epoch a slow trace reaches
	if allocs := testing.AllocsPerRun(5, into); allocs != 0 {
		t.Errorf("warm TracerouteInto: %v allocs per %d traceroutes, want 0", allocs, len(tasks))
	}
	with := run(func(task trTask) error {
		_, err := n.TracerouteWith(&sc, task.probe, task.dst, tAt, task.paris, rng, TracerouteOpts{})
		return err
	})
	if allocs, want := testing.AllocsPerRun(5, with), float64(2*len(tasks)); allocs != want {
		t.Errorf("TracerouteWith: %v allocs per %d traceroutes, want %v", allocs, len(tasks), want)
	}
}

// TestTowardTreeAllocsIndependentOfSize: a tree is a fixed number of flat
// arrays, not a slice per reachable router.
func TestTowardTreeAllocsIndependentOfSize(t *testing.T) {
	allocs := func(cfg TopoConfig) (float64, int) {
		topo, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n, err := topo.Build(nil)
		if err != nil {
			t.Fatal(err)
		}
		root := topo.ProbeSites()[0]
		return testing.AllocsPerRun(10, func() { n.computeTowardTree(root, 0) }), len(n.routers)
	}
	small, nSmall := allocs(TopoConfig{Seed: 3, Tier1: 2, Transit: 4, Stub: 8, Roots: 1, RootInstances: 2, Anchors: 2})
	large, nLarge := allocs(TopoConfig{Seed: 3, Tier1: 4, Transit: 20, Stub: 120})
	if nLarge < 4*nSmall {
		t.Fatalf("topologies too alike: %d vs %d routers", nSmall, nLarge)
	}
	if small != large || small > 8 {
		t.Errorf("computeTowardTree allocs: %v on %d routers, %v on %d routers; want equal and small", small, nSmall, large, nLarge)
	}
}
