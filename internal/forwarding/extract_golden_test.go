package forwarding

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/ident"
	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

// goldenExtractSHA is the sha256 of the address-resolved emission sequence
// of ExtractContributions over extractCorpus, recorded on the commit before
// extraction moved onto trace.View (PR 14). IDs are run-dependent, so flows,
// routers and hops are resolved back to addresses through the registry
// before hashing. An extraction-kernel change may move time, never these
// bytes.
const goldenExtractSHA = "977c5f06d06300e18d72638a73def0ea096a69b67e33c9846b7fde68194770e0"

// extractCorpus is one seeded atlas campaign with all five measurement
// artifacts on, followed by hand-built results covering the shapes the
// campaign cannot reach (the same corpus internal/delay pins).
func extractCorpus(t *testing.T) []trace.Result {
	t.Helper()
	topo, err := netsim.Generate(netsim.TopoConfig{
		Seed: 41, Tier1: 2, Transit: 6, Stub: 10,
		Roots: 1, RootInstances: 2, Anchors: 2, IXPs: 1, IXPMembers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo.Builder.SetArtifacts(netsim.Artifacts{MultipathProb: 0.4, RouteFlipProb: 0.4,
		ReorderProb: 0.1, LyingHopProb: 0.1, AliasProb: 0.4})
	n, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := atlas.NewPlatform(n, 41, netsim.TracerouteOpts{})
	p.AddProbes(topo.ProbeSites())
	p.AddBuiltin(topo.Roots[0].Addr)
	all := make([]int, len(p.Probes()))
	for i := range all {
		all[i] = i + 1
	}
	p.AddAnchoring(topo.Anchors[0].Addr, all)
	p.AddAnchoring(topo.Anchors[1].Addr, all)
	from := time.Date(2015, 11, 30, 0, 0, 0, 0, time.UTC)
	rs, err := p.Collect(from, from.Add(4*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) < 200 {
		t.Fatalf("campaign produced only %d results", len(rs))
	}

	ip := netip.MustParseAddr
	a, b, c, d, e, f := ip("10.9.0.1"), ip("10.9.0.2"), ip("10.9.0.3"), ip("10.9.1.1"), ip("10.9.1.2"), ip("2001:db8::9")
	rep := func(from netip.Addr, rtt float64) trace.Reply { return trace.Reply{From: from, RTT: rtt} }
	to := trace.Reply{Timeout: true}
	hop := func(i int, reps ...trace.Reply) trace.Hop { return trace.Hop{Index: i, Replies: reps} }
	mk := func(prb int, hops ...trace.Hop) trace.Result {
		return trace.Result{MsmID: 7, PrbID: prb, Time: from.Add(5 * time.Hour),
			Src: ip("192.0.2.9"), Dst: ip("198.51.100.9"), Hops: hops}
	}
	rs = append(rs,
		// More than eight replies on the far and on the near hop.
		mk(900001,
			hop(1, rep(a, 1), rep(a, 1.5)),
			hop(2, rep(d, 2), rep(d, 2.1), rep(e, 2.2), rep(d, 2.3), rep(e, 2.4), rep(d, 2.5), rep(d, 2.6), rep(e, 2.7), rep(d, 2.8), rep(f, 2.9), rep(a, 3)),
			hop(3, rep(b, 4), to, rep(c, 4.5))),
		// Two and three distinct responders on the near and the far hop.
		mk(900002,
			hop(1, rep(a, 1), rep(b, 1.25), rep(a, 1.5)),
			hop(2, rep(d, 2), rep(e, 2.25), rep(f, 2.5)),
			hop(3, rep(a, 3), rep(b, 3.25), rep(c, 3.5)),
			hop(4, rep(d, 4), rep(d, 4.25), rep(e, 4.5))),
		// Timeout set and a valid From: the reply must count as a timeout.
		mk(900003,
			hop(1, rep(a, 1), trace.Reply{From: b, RTT: 1.5, Timeout: true}, to),
			hop(2, trace.Reply{From: d, RTT: 2, Timeout: true}, rep(e, 2.5), rep(e, 2.75)),
			hop(3, to, to, to),
			hop(4, rep(c, 5))),
		// Self-loop: the far hop answers from the near hop's address, partly
		// (hop 2) and entirely (hop 4).
		mk(900011,
			hop(1, rep(a, 1), rep(a, 1.1), rep(b, 1.2)),
			hop(2, rep(a, 2), rep(b, 2.1), rep(d, 2.2)),
			hop(3, rep(d, 3), rep(d, 3.1), rep(d, 3.2)),
			hop(4, rep(d, 4), rep(d, 4.1))),
		// Hop-number gap, an empty hop and a zero-valued From.
		mk(900012,
			hop(1, rep(a, 1)),
			hop(3, rep(d, 3)),
			hop(4, rep(e, 4), trace.Reply{RTT: 4.5}),
			hop(5),
			hop(6, rep(c, 6))),
		// A probe with no resolvable AS.
		mk(999999,
			hop(1, rep(a, 1), rep(a, 1.1)),
			hop(2, rep(d, 2), rep(d, 2.1))),
	)
	return rs
}

func TestExtractContributionsGolden(t *testing.T) {
	rs := extractCorpus(t)
	reg := ident.NewRegistry()
	in := ident.NewInterner(reg)
	sum := sha256.New()
	contribs := 0
	for i := range rs {
		ExtractContributions(in, rs[i], func(c Contribution) {
			router, dst := reg.FlowAddrsOf(c.Flow)
			// The contribution's router is its flow's router: the digest
			// prints that address once for the flow and once for c.Router.
			if want := reg.Router(reg.Addr(router)); c.Router != want {
				t.Fatalf("result %d: contribution router %d, want %d (the flow's router %s)", i, c.Router, want, router)
			}
			fmt.Fprintf(sum, "%d %s %s %s %s %016x %t\n", i, router, dst, router,
				reg.AddrOf(c.Hop), math.Float64bits(c.W), c.Touch)
			contribs++
		})
	}
	if contribs < 2000 {
		t.Fatalf("corpus yielded only %d contributions", contribs)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenExtractSHA {
		t.Errorf("ExtractContributions emission sha256 = %s (%d contributions), want %s", got, contribs, goldenExtractSHA)
	}
}
