package atlas

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

// Campaign byte goldens. The digests below are the sha256 of the
// trace.AppendResult NDJSON of goldenCampaign, recorded on the commit before
// the traceroute engine was compiled into per-trace legs (PR 13). They are
// the oracle for "PRNG draw order unchanged" on the branches the case-study
// goldens of internal/experiments do not reach: all six event kinds at once,
// overlapping events on one link, a blackhole on a return path, route flips
// across several epochs and every measurement artifact. A kernel change may
// move time, never these bytes; re-record only for a deliberate model change.
const (
	goldenArtifactsSHA = "8a6cb8c0767e545d8dfcfb88651fa59a3ccf349ad9620fc440690494a85a0aab"
	goldenCleanSHA     = "e151d6066530271b9d5cde5bc263effb863f4352a28ad3bcc63a417d07a1c3af"
)

// goldenCampaign runs a small seeded campaign over a generated topology
// whose scenario is planned along real forward and return paths, and
// returns the sha256 of its NDJSON and the result count.
func goldenCampaign(t *testing.T, art netsim.Artifacts, workers int) (string, int) {
	t.Helper()
	topo, err := netsim.Generate(netsim.TopoConfig{
		Seed: 77, Tier1: 2, Transit: 8, Stub: 12,
		Roots: 1, RootInstances: 3, Anchors: 2, IXPs: 1, IXPMembers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Generated routing weights are continuous, so equal-cost paths never
	// arise on their own: hang one extra probe behind a 3-way ECMP diamond so
	// the multipath alternate and the hashed return-path choice are exercised.
	sites := topo.ProbeSites()
	b, stub := topo.Builder, topo.Stub[0].ASN
	ecmpProbe := b.Router(stub, "golden-probe", netsim.RouterOpts{})
	for _, name := range []string{"golden-m0", "golden-m1", "golden-m2"} {
		mid := b.Router(stub, name, netsim.RouterOpts{})
		b.Link(ecmpProbe, mid, netsim.LinkOpts{DelayMS: 1, WeightAB: 1, WeightBA: 1})
		b.Link(mid, sites[0], netsim.LinkOpts{DelayMS: 1, WeightAB: 1, WeightBA: 1})
	}
	plan, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	root := topo.Roots[0].Addr
	fwd, ok := plan.ForwardPath(sites[0], root, from, 0)
	if !ok || len(fwd) < 6 {
		t.Fatalf("planning path too short: %v (reached %v)", fwd, ok)
	}
	ret, ok := plan.ReturnPath(fwd[len(fwd)-2], sites[0], from)
	if !ok || len(ret) < 3 {
		t.Fatalf("planning return path too short: %v (reached %v)", ret, ok)
	}
	last := len(fwd) - 1
	h := func(hours float64) time.Time { return from.Add(time.Duration(hours * float64(time.Hour))) }
	scenario := netsim.NewScenario(
		// Two overlapping events on one link, the first in both directions.
		netsim.Event{Name: "congestion", Kind: netsim.EventCongestion, Start: h(1), End: h(4),
			From: fwd[1], To: fwd[2], Both: true, ExtraDelayMS: 30, Loss: 0.05},
		netsim.Event{Name: "loss", Kind: netsim.EventLoss, Start: h(2), End: h(5),
			From: fwd[1], To: fwd[2], Loss: 0.2},
		// Two route-affecting events with overlapping windows: four epochs.
		netsim.Event{Name: "reroute", Kind: netsim.EventReroute, Start: h(1.5), End: h(3.5),
			From: fwd[2], To: fwd[3], WeightFactor: 50},
		netsim.Event{Name: "down", Kind: netsim.EventLinkDown, Start: h(3), End: h(5),
			From: fwd[last-1], To: fwd[last], Both: true},
		netsim.Event{Name: "silence", Kind: netsim.EventSilence, Start: h(0.5), End: h(2.5),
			Router: fwd[3]},
		// A transit router of a return path drops half the replies.
		netsim.Event{Name: "blackhole", Kind: netsim.EventBlackhole, Start: h(1), End: h(5),
			Router: ret[len(ret)/2], Loss: 0.5},
	)
	epochs := map[uint64]bool{}
	for m := 0; m < 6*60; m += 15 {
		epochs[scenario.EpochKey(from.Add(time.Duration(m)*time.Minute))] = true
	}
	if len(epochs) < 3 {
		t.Fatalf("scenario has %d routing epochs, want >= 3", len(epochs))
	}

	topo.Builder.SetArtifacts(art)
	n, err := topo.Build(scenario)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(n, 77, netsim.TracerouteOpts{})
	p.AddProbes(append(sites, ecmpProbe))
	p.SetWorkers(workers)
	p.AddBuiltin(root)
	all := make([]int, len(p.Probes()))
	for i := range all {
		all[i] = i + 1
	}
	p.AddAnchoring(topo.Anchors[0].Addr, all)
	p.AddAnchoring(topo.Anchors[1].Addr, all)

	sum := sha256.New()
	var line []byte
	count := 0
	err = p.Run(from, h(6), func(r trace.Result) error {
		var err error
		if line, err = trace.AppendResult(line[:0], r); err != nil {
			return err
		}
		sum.Write(append(line, '\n'))
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(sum.Sum(nil)), count
}

func TestCampaignByteGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		art  netsim.Artifacts
		want string
	}{
		{"artifacts", netsim.Artifacts{MultipathProb: 0.4, RouteFlipProb: 0.4, ReorderProb: 0.1,
			LyingHopProb: 0.1, AliasProb: 0.4}, goldenArtifactsSHA},
		{"clean", netsim.Artifacts{}, goldenCleanSHA},
	} {
		for _, workers := range []int{1, 4} {
			got, count := goldenCampaign(t, tc.art, workers)
			if count < 500 {
				t.Errorf("%s workers=%d: only %d results", tc.name, workers, count)
			}
			if got != tc.want {
				t.Errorf("%s workers=%d: campaign sha256 = %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}
