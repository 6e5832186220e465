package netsim

import (
	"math/rand/v2"
	"net/netip"
	"slices"
	"testing"
	"time"

	"pinpoint/internal/trace"
)

// responders lists hop h's distinct replying addresses in first-seen order.
func responders(h trace.Hop) []netip.Addr {
	var out []netip.Addr
	for _, r := range h.Replies {
		if !r.Timeout && r.From.IsValid() && !slices.Contains(out, r.From) {
			out = append(out, r.From)
		}
	}
	return out
}

// rttsFrom lists the RTTs of hop h's replies from one address.
func rttsFrom(h trace.Hop, from netip.Addr) []float64 {
	var out []float64
	for _, r := range h.Replies {
		if !r.Timeout && r.From == from {
			out = append(out, r.RTT)
		}
	}
	return out
}

// reached reports whether r's last hop has a reply from its destination.
func reached(r trace.Result) bool {
	return len(r.Hops) > 0 && slices.Contains(responders(r.Hops[len(r.Hops)-1]), r.Dst)
}

// lineTopology builds P -- A -- B -- C with a detour P -- D -- C, anchor
// service on C. Weights make the direct path preferred.
func lineTopology(t *testing.T, scenario *Scenario) (*Net, map[string]RouterID) {
	t.Helper()
	b := NewBuilder()
	b.AS(100, "probe-as", "10.0.100.0/24")
	b.AS(200, "mid-as", "10.0.200.0/24")
	b.AS(300, "dst-as", "10.1.44.0/24")
	ids := map[string]RouterID{}
	ids["P"] = b.Router(100, "P", RouterOpts{ResponseProb: 1})
	ids["A"] = b.Router(200, "A", RouterOpts{ResponseProb: 1})
	ids["B"] = b.Router(200, "B", RouterOpts{ResponseProb: 1})
	ids["C"] = b.Router(300, "C", RouterOpts{ResponseProb: 1})
	ids["D"] = b.Router(200, "D", RouterOpts{ResponseProb: 1})
	b.Link(ids["P"], ids["A"], LinkOpts{DelayMS: 1, loss: 1e-9})
	b.Link(ids["A"], ids["B"], LinkOpts{DelayMS: 2, loss: 1e-9})
	b.Link(ids["B"], ids["C"], LinkOpts{DelayMS: 3, loss: 1e-9})
	b.Link(ids["P"], ids["D"], LinkOpts{DelayMS: 10, loss: 1e-9})
	b.Link(ids["D"], ids["C"], LinkOpts{DelayMS: 10, loss: 1e-9})
	b.Service("10.1.44.200", 300, "", ids["C"])
	n, err := b.Build(scenario)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n, ids
}

var tAt = time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)

func TestBuilderErrors(t *testing.T) {
	cases := map[string]func(b *Builder){
		"dup AS":     func(b *Builder) { b.AS(1, "x", "10.0.0.0/24"); b.AS(1, "y", "10.0.1.0/24") },
		"bad prefix": func(b *Builder) { b.AS(1, "x", "nope") },
		"unknown AS": func(b *Builder) { b.Router(9, "r", RouterOpts{}) },
		"dup addr": func(b *Builder) {
			b.AS(1, "x", "10.0.0.0/24")
			b.RouterAt(1, "a", "10.0.0.1", RouterOpts{})
			b.RouterAt(1, "b", "10.0.0.1", RouterOpts{})
		},
		"self link": func(b *Builder) {
			b.AS(1, "x", "10.0.0.0/24")
			r := b.Router(1, "r", RouterOpts{})
			b.Link(r, r, LinkOpts{DelayMS: 1})
		},
		"zero delay": func(b *Builder) {
			b.AS(1, "x", "10.0.0.0/24")
			r1 := b.Router(1, "r1", RouterOpts{})
			r2 := b.Router(1, "r2", RouterOpts{})
			b.Link(r1, r2, LinkOpts{})
		},
		"empty service":   func(b *Builder) { b.AS(1, "x", "10.0.0.0/24"); b.Service("10.9.9.9", 1, "") },
		"unknown service": func(b *Builder) { b.AS(1, "x", "10.0.0.0/24"); b.Service("10.9.9.9", 1, "", RouterID(99)) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			b := NewBuilder()
			f(b)
			if _, err := b.Build(nil); err == nil {
				t.Error("expected build error")
			}
		})
	}
}

func TestBuildValidatesScenario(t *testing.T) {
	b := NewBuilder()
	b.AS(1, "x", "10.0.0.0/24")
	r1 := b.Router(1, "r1", RouterOpts{})
	r2 := b.Router(1, "r2", RouterOpts{})
	b.Link(r1, r2, LinkOpts{DelayMS: 1})
	bad := NewScenario(Event{Kind: EventSilence, Router: RouterID(42), Start: tAt, End: tAt.Add(time.Hour)})
	if _, err := b.Build(bad); err == nil {
		t.Error("scenario with unknown router accepted")
	}

	b2 := NewBuilder()
	b2.AS(1, "x", "10.0.0.0/24")
	a := b2.Router(1, "r1", RouterOpts{})
	z := b2.Router(1, "r2", RouterOpts{})
	b2.Link(a, z, LinkOpts{DelayMS: 1})
	zeroDur := NewScenario(Event{Kind: EventSilence, Router: a, Start: tAt, End: tAt})
	if _, err := b2.Build(zeroDur); err == nil {
		t.Error("zero-duration event accepted")
	}
}

func TestForwardPathShortest(t *testing.T) {
	n, ids := lineTopology(t, nil)
	path, ok := n.ForwardPath(ids["P"], netip.MustParseAddr("10.1.44.200"), tAt, 0)
	if !ok {
		t.Fatal("destination unreachable")
	}
	want := []RouterID{ids["P"], ids["A"], ids["B"], ids["C"]}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestTracerouteBasics(t *testing.T) {
	n, ids := lineTopology(t, nil)
	rng := rand.New(rand.NewPCG(1, 1))
	res, err := n.TracerouteWith(&TracerouteScratch{}, ids["P"], netip.MustParseAddr("10.1.44.200"), tAt, 0, rng, TracerouteOpts{})
	if err != nil {
		t.Fatalf("Traceroute: %v", err)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("invalid result: %v", err)
	}
	if len(res.Hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(res.Hops))
	}
	// Final hop replies with the service address.
	if !reached(res) {
		t.Error("destination not reached")
	}
	last := responders(res.Hops[2])
	if len(last) != 1 || last[0] != netip.MustParseAddr("10.1.44.200") {
		t.Errorf("final hop responders = %v, want service addr", last)
	}
	// Hop 1 is A, hop 2 is B.
	if got := responders(res.Hops[0])[0]; got != n.Router(ids["A"]).Addr {
		t.Errorf("hop1 = %v, want A", got)
	}
	if got := responders(res.Hops[1])[0]; got != n.Router(ids["B"]).Addr {
		t.Errorf("hop2 = %v, want B", got)
	}
	// RTTs increase roughly with distance: median hop3 > median hop1.
	h1 := rttsFrom(res.Hops[0], n.Router(ids["A"]).Addr)
	h3 := rttsFrom(res.Hops[2], netip.MustParseAddr("10.1.44.200"))
	if len(h1) != 3 || len(h3) != 3 {
		t.Fatalf("want 3 replies per hop, got %d and %d", len(h1), len(h3))
	}
	if h3[0] < h1[0] {
		t.Logf("note: hop3 RTT %v < hop1 RTT %v (possible with noise)", h3[0], h1[0])
	}
}

func TestTracerouteUnknownInputs(t *testing.T) {
	n, ids := lineTopology(t, nil)
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := n.TracerouteWith(&TracerouteScratch{}, RouterID(99), netip.MustParseAddr("10.1.44.200"), tAt, 0, rng, TracerouteOpts{}); err == nil {
		t.Error("unknown probe accepted")
	}
	if _, err := n.TracerouteWith(&TracerouteScratch{}, ids["P"], netip.MustParseAddr("9.9.9.9"), tAt, 0, rng, TracerouteOpts{}); err == nil {
		t.Error("unknown destination accepted")
	}
}

func TestTracerouteDeterministicGivenSeed(t *testing.T) {
	n, ids := lineTopology(t, nil)
	r1, _ := n.TracerouteWith(&TracerouteScratch{}, ids["P"], netip.MustParseAddr("10.1.44.200"), tAt, 0, rand.New(rand.NewPCG(7, 9)), TracerouteOpts{})
	r2, _ := n.TracerouteWith(&TracerouteScratch{}, ids["P"], netip.MustParseAddr("10.1.44.200"), tAt, 0, rand.New(rand.NewPCG(7, 9)), TracerouteOpts{})
	if len(r1.Hops) != len(r2.Hops) {
		t.Fatal("hop counts differ")
	}
	for i := range r1.Hops {
		for j := range r1.Hops[i].Replies {
			a, b := r1.Hops[i].Replies[j], r2.Hops[i].Replies[j]
			if a != b {
				t.Fatalf("replies differ at hop %d: %+v vs %+v", i, a, b)
			}
		}
	}
}

func TestLinkDownReroutes(t *testing.T) {
	start := tAt
	end := tAt.Add(time.Hour)
	var ids map[string]RouterID
	var n *Net
	// Need ids before scenario; build twice with same deterministic builder.
	_, ids = lineTopology(t, nil)
	sc := NewScenario(Event{
		Name: "AB down", Kind: EventLinkDown,
		From: ids["A"], To: ids["B"], Both: true,
		Start: start, End: end,
	})
	n, ids = lineTopology(t, sc)

	before, _ := n.ForwardPath(ids["P"], netip.MustParseAddr("10.1.44.200"), start.Add(-time.Hour), 0)
	during, ok := n.ForwardPath(ids["P"], netip.MustParseAddr("10.1.44.200"), start.Add(10*time.Minute), 0)
	if !ok {
		t.Fatal("expected detour to exist")
	}
	after, _ := n.ForwardPath(ids["P"], netip.MustParseAddr("10.1.44.200"), end.Add(time.Minute), 0)

	if len(before) != 4 || len(after) != 4 {
		t.Errorf("before/after should use 3-hop path: %v / %v", before, after)
	}
	if len(during) != 3 || during[1] != ids["D"] {
		t.Errorf("during outage path = %v, want via D", during)
	}
}

func TestCongestionRaisesRTT(t *testing.T) {
	_, ids := lineTopology(t, nil)
	sc := NewScenario(Event{
		Name: "congest BC", Kind: EventCongestion,
		From: ids["B"], To: ids["C"], Both: true, ExtraDelayMS: 100,
		Start: tAt, End: tAt.Add(time.Hour),
	})
	n, ids := lineTopology(t, sc)
	dst := netip.MustParseAddr("10.1.44.200")

	med := func(at time.Time) float64 {
		rng := rand.New(rand.NewPCG(3, 3))
		var rtts []float64
		for i := 0; i < 30; i++ {
			res, err := n.TracerouteWith(&TracerouteScratch{}, ids["P"], dst, at, 0, rng, TracerouteOpts{})
			if err != nil {
				t.Fatal(err)
			}
			rtts = append(rtts, rttsFrom(res.Hops[len(res.Hops)-1], dst)...)
		}
		// crude median
		sum := 0.0
		for _, v := range rtts {
			sum += v
		}
		return sum / float64(len(rtts))
	}
	quiet := med(tAt.Add(-time.Hour))
	busy := med(tAt.Add(10 * time.Minute))
	if busy < quiet+80 {
		t.Errorf("congestion not visible: quiet=%v busy=%v", quiet, busy)
	}
}

func TestSilenceMakesHopUnresponsive(t *testing.T) {
	_, ids := lineTopology(t, nil)
	sc := NewScenario(Event{
		Name: "B silent", Kind: EventSilence, Router: ids["B"],
		Start: tAt, End: tAt.Add(time.Hour),
	})
	n, ids := lineTopology(t, sc)
	rng := rand.New(rand.NewPCG(5, 5))
	res, err := n.TracerouteWith(&TracerouteScratch{}, ids["P"], netip.MustParseAddr("10.1.44.200"), tAt.Add(time.Minute), 0, rng, TracerouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops) != 3 {
		t.Fatalf("hops = %d, want 3 (silent router still forwards)", len(res.Hops))
	}
	if !res.Hops[1].Unresponsive() {
		t.Error("hop 2 should be unresponsive while B is silent")
	}
	if !reached(res) {
		t.Error("traffic should still reach the destination through a silent router")
	}
}

func TestBlackholeDropsTransit(t *testing.T) {
	_, ids := lineTopology(t, nil)
	sc := NewScenario(Event{
		Name: "B blackhole", Kind: EventBlackhole, Router: ids["B"], Loss: 1,
		Start: tAt, End: tAt.Add(time.Hour),
	})
	n, ids := lineTopology(t, sc)
	rng := rand.New(rand.NewPCG(6, 6))
	res, err := n.TracerouteWith(&TracerouteScratch{}, ids["P"], netip.MustParseAddr("10.1.44.200"), tAt.Add(time.Minute), 0, rng, TracerouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if reached(res) {
		t.Error("blackholed path must not reach the destination")
	}
	// B itself still answers TTL-expired (it is the target, not transit).
	if res.Hops[1].Unresponsive() {
		t.Error("hop at B should still respond (not transit for its own TTL)")
	}
	// Hops beyond B are dead.
	if len(res.Hops) < 3 || !res.Hops[2].Unresponsive() {
		t.Error("hops beyond the blackhole should time out")
	}
}

func TestAnycastPicksNearestInstance(t *testing.T) {
	b := NewBuilder()
	b.AS(1, "left", "10.0.1.0/24")
	b.AS(2, "right", "10.0.2.0/24")
	b.AS(3, "op", "10.0.3.0/24")
	p1 := b.Router(1, "p1", RouterOpts{ResponseProb: 1})
	p2 := b.Router(2, "p2", RouterOpts{ResponseProb: 1})
	mid := b.Router(1, "mid", RouterOpts{ResponseProb: 1})
	i1 := b.Router(3, "i1", RouterOpts{ResponseProb: 1})
	i2 := b.Router(3, "i2", RouterOpts{ResponseProb: 1})
	b.Link(p1, i1, LinkOpts{DelayMS: 1})
	b.Link(p2, i2, LinkOpts{DelayMS: 1})
	b.Link(p1, mid, LinkOpts{DelayMS: 30})
	b.Link(p2, mid, LinkOpts{DelayMS: 30})
	b.Service("193.0.14.129", 3, "193.0.14.0/24", i1, i2)
	n, err := b.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := netip.MustParseAddr("193.0.14.129")
	path1, _ := n.ForwardPath(p1, dst, tAt, 0)
	path2, _ := n.ForwardPath(p2, dst, tAt, 0)
	if path1[len(path1)-1] != i1 {
		t.Errorf("p1 should hit instance i1, path %v", path1)
	}
	if path2[len(path2)-1] != i2 {
		t.Errorf("p2 should hit instance i2, path %v", path2)
	}
}

func TestEpochKeyAndBoundaries(t *testing.T) {
	_, ids := lineTopology(t, nil)
	e1 := Event{Name: "r1", Kind: EventReroute, From: ids["A"], To: ids["B"], WeightFactor: 10, Start: tAt, End: tAt.Add(time.Hour)}
	e2 := Event{Name: "r2", Kind: EventLinkDown, From: ids["B"], To: ids["C"], Start: tAt.Add(30 * time.Minute), End: tAt.Add(2 * time.Hour)}
	e3 := Event{Name: "noise", Kind: EventCongestion, From: ids["A"], To: ids["B"], ExtraDelayMS: 5, Start: tAt, End: tAt.Add(time.Hour)}
	sc := NewScenario(e1, e2, e3)
	if sc.EpochKey(tAt.Add(-time.Minute)) != 0 {
		t.Error("epoch before events should be 0")
	}
	k1 := sc.EpochKey(tAt.Add(10 * time.Minute))
	k2 := sc.EpochKey(tAt.Add(45 * time.Minute))
	k3 := sc.EpochKey(tAt.Add(90 * time.Minute))
	if k1 == 0 || k1 == k2 || k2 == k3 || k1 == k3 {
		t.Errorf("epochs should differ: %v %v %v", k1, k2, k3)
	}
	// The key changes at the four distinct event edges and nowhere between.
	for _, m := range []time.Duration{0, 30 * time.Minute, time.Hour, 2 * time.Hour} {
		if b := tAt.Add(m); sc.EpochKey(b.Add(-time.Nanosecond)) == sc.EpochKey(b) {
			t.Errorf("epoch key does not change at %v", b)
		}
	}
	if sc.EpochKey(tAt.Add(10*time.Minute)) != sc.EpochKey(tAt.Add(29*time.Minute)) {
		t.Error("epoch key changes between event edges")
	}
	// Congestion is not route-affecting: same epoch key with/without it.
	scNoCongest := NewScenario(e1, e2)
	if scNoCongest.EpochKey(tAt.Add(10*time.Minute)) != k1 {
		t.Error("congestion event must not alter the epoch key")
	}
}

func TestGapLimitTruncates(t *testing.T) {
	// P -- A -- B(silent+blackhole) -- C -- dst: traceroute should stop
	// after gapLimit unresponsive hops.
	_, ids := lineTopology(t, nil)
	sc := NewScenario(
		Event{Name: "bh", Kind: EventBlackhole, Router: ids["A"], Loss: 1, Start: tAt, End: tAt.Add(time.Hour)},
		Event{Name: "quiet", Kind: EventSilence, Router: ids["A"], Start: tAt, End: tAt.Add(time.Hour)},
	)
	n, ids := lineTopology(t, sc)
	rng := rand.New(rand.NewPCG(8, 8))
	res, err := n.TracerouteWith(&TracerouteScratch{}, ids["P"], netip.MustParseAddr("10.1.44.200"), tAt.Add(time.Minute), 0, rng, TracerouteOpts{gapLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops) != 3 {
		t.Errorf("hops = %d, want exactly gapLimit=3 timeout hops", len(res.Hops))
	}
	for _, h := range res.Hops {
		if !h.Unresponsive() {
			t.Error("all hops should be unresponsive")
		}
	}
}

// TestNegativeTracerouteOptionsRejected: withDefaults fills only zeros, so a
// negative packet count (a hop of zero replies) or gap limit (stop at the
// first unresponsive hop) would silently distort every result.
func TestNegativeTracerouteOptionsRejected(t *testing.T) {
	n, ids := lineTopology(t, nil)
	var sc TracerouteScratch
	rng := rand.New(rand.NewPCG(1, 1))
	for _, opts := range []TracerouteOpts{{packetsPerHop: -1}, {gapLimit: -1}, {packetsPerHop: -3, gapLimit: 2}} {
		if res, err := n.TracerouteInto(&sc, ids["P"], netip.MustParseAddr("10.1.44.200"), tAt, 0, rng, opts); err == nil {
			t.Errorf("%+v accepted: %d hops", opts, len(res.Hops))
		}
	}
}
