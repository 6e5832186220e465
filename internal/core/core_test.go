package core

import (
	"context"
	"testing"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

var start = time.Date(2015, 11, 28, 0, 0, 0, 0, time.UTC)

// buildAttack builds a small Internet, injects a 2-hour congestion on the
// last-hop link of one root instance (a miniature §7.1 DDoS), and returns
// the platform plus ground truth.
func buildAttack(t testing.TB) (p *atlas.Platform, topo *netsim.Topo, eventStart, eventEnd time.Time) {
	t.Helper()
	topo, err := netsim.Generate(netsim.TopoConfig{
		Seed: 1234, Tier1: 2, Transit: 5, Stub: 20,
		Roots: 1, RootInstances: 3, Anchors: 2, IXPs: 1, IXPMembers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	eventStart = start.Add(48 * time.Hour)
	eventEnd = eventStart.Add(2 * time.Hour)
	root := topo.Roots[0]
	sc := netsim.NewScenario(netsim.Event{
		Name: "ddos", Kind: netsim.EventCongestion,
		From: root.Sites[0], To: root.Instances[0], Both: true,
		ExtraDelayMS: 60, Loss: 0.02,
		Start: eventStart, End: eventEnd,
	})
	n, err := topo.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	p = atlas.NewPlatform(n, 99, netsim.TracerouteOpts{})
	p.AddProbes(topo.ProbeSites())
	p.AddBuiltin(root.Addr)
	return p, topo, eventStart, eventEnd
}

func TestEndToEndDDoSDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p, topo, evStart, evEnd := buildAttack(t)
	root := topo.Roots[0]

	cfg := Config{RetainAlarms: true}
	cfg.Events.Window = 24 * time.Hour
	cfg.Events.Threshold = 3
	a := New(cfg, p.ProbeASN, p.Net().Prefixes())

	end := start.Add(72 * time.Hour)
	if err := p.Run(start, end, func(r trace.Result) error {
		a.Observe(r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	a.Flush()

	if a.Results() == 0 {
		t.Fatal("no results processed")
	}

	// 1. Delay-alarm severity must concentrate in the attack window. Counts
	//    alone are misleading: after the event the polluted reference decays
	//    back over many bins of low-deviation "recovery" alarms (a known
	//    property of the paper's unconditional reference update, bounded by
	//    the small α).
	var inWindow, outWindow int
	var inDev, outDev float64
	rootLinkSeen := false
	for _, al := range a.DelayAlarms() {
		if !al.Bin.Before(evStart) && al.Bin.Before(evEnd) {
			inWindow++
			inDev += al.Deviation
			if al.Link.Near == root.Addr || al.Link.Far == root.Addr {
				rootLinkSeen = true
			}
		} else {
			outWindow++
			outDev += al.Deviation
		}
	}
	if inWindow == 0 {
		t.Fatal("no delay alarms during the attack window")
	}
	if !rootLinkSeen {
		t.Error("no alarm pinpointing the root's last-hop link")
	}
	if inDev <= outDev {
		t.Errorf("severity outside the window (%.0f) exceeds inside (%.0f)", outDev, inDev)
	}

	// 2. The root operator AS's delay magnitude must peak inside the window.
	mags := a.Aggregator().DelayMagnitude(root.ASN, start.Add(24*time.Hour), end)
	var peakT time.Time
	peakV := -1e18
	for _, pt := range mags {
		if pt.V > peakV {
			peakV, peakT = pt.V, pt.T
		}
	}
	if peakT.Before(evStart) || !peakT.Before(evEnd) {
		t.Errorf("delay magnitude peak at %v (%.1f), want inside [%v, %v)", peakT, peakV, evStart, evEnd)
	}

	// 3. Event detection surfaces the operator AS.
	evs := a.Aggregator().Events(start.Add(24*time.Hour), end)
	found := false
	for _, e := range evs {
		if e.ASN == root.ASN && e.Type == events.DelayChange &&
			!e.Bin.Before(evStart) && e.Bin.Before(evEnd) {
			found = true
		}
	}
	if !found {
		t.Errorf("no delay-change event for %v in window; events: %v", root.ASN, evs)
	}

	// 4. The alarm graph around the root address is non-trivial during the
	//    attack (Fig 8's connected component).
	g := a.Graph(evStart, evEnd)
	if nodes := g.ComponentNodes(root.Addr); len(nodes) < 2 {
		t.Errorf("root component has %d nodes, want ≥ 2", len(nodes))
	}
}

func TestAlarmHooks(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p, _, evStart, _ := buildAttack(t)
	a := New(Config{}, p.ProbeASN, p.Net().Prefixes())
	hooked := 0
	a.OnDelayAlarm = func(delay.Alarm) { hooked++ }
	err := p.Run(evStart.Add(-24*time.Hour), evStart.Add(3*time.Hour), func(r trace.Result) error {
		a.Observe(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Flush()
	if hooked == 0 {
		t.Error("OnDelayAlarm never invoked")
	}
	if len(a.DelayAlarms()) != 0 {
		t.Error("alarms retained despite RetainAlarms=false")
	}
}

func TestFlushIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p, _, evStart, _ := buildAttack(t)
	for _, workers := range []int{1, 4} {
		a := New(Config{RetainAlarms: true, Workers: workers}, p.ProbeASN, p.Net().Prefixes())
		err := p.Run(evStart.Add(-24*time.Hour), evStart.Add(3*time.Hour), func(r trace.Result) error {
			a.Observe(r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		a.Flush()
		nd, nf := len(a.DelayAlarms()), len(a.ForwardingAlarms())
		if nd == 0 {
			t.Fatalf("workers=%d: fixture produced no delay alarms", workers)
		}
		// The canceled-run shape: a deferred Flush after an explicit one
		// must not re-emit the closed bin's alarms.
		a.Flush()
		a.Flush()
		if len(a.DelayAlarms()) != nd || len(a.ForwardingAlarms()) != nf {
			t.Errorf("workers=%d: double Flush grew alarms %d/%d → %d/%d",
				workers, nd, nf, len(a.DelayAlarms()), len(a.ForwardingAlarms()))
		}
		a.Close()
		a.Close() // Close is idempotent too
	}
}

func TestShardedFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, c := range []struct{ cfg, want int }{{0, 1}, {1, 1}, {4, 4}} {
		p, _, _, _ := buildAttack(t)
		a := New(Config{Workers: c.cfg}, p.ProbeASN, p.Net().Prefixes())
		defer a.Close()
		if a.Workers() != c.want {
			t.Fatalf("Workers: %d: Workers() = %d, want %d", c.cfg, a.Workers(), c.want)
		}
		if err := a.RunPlatform(context.Background(), p, start, start.Add(6*time.Hour)); err != nil {
			t.Fatal(err)
		}
		if a.Results() == 0 {
			t.Errorf("Workers: %d: fused run processed no results", c.cfg)
		}
		if a.LinksSeen() == 0 || a.RoutersSeen() == 0 {
			t.Errorf("Workers: %d: stats empty: links=%d routers=%d", c.cfg, a.LinksSeen(), a.RoutersSeen())
		}
	}
}
