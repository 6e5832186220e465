package atlas

import (
	"testing"
	"time"

	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

func testPlatform(t *testing.T, seed uint64) (*Platform, *netsim.Topo) {
	t.Helper()
	topo, err := netsim.Generate(netsim.TopoConfig{
		Seed: seed, Tier1: 2, Transit: 4, Stub: 8,
		Roots: 1, RootInstances: 3, Anchors: 2, IXPs: 1, IXPMembers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(n, seed, netsim.TracerouteOpts{})
	p.AddProbes(topo.ProbeSites())
	return p, topo
}

var from = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

func TestProbeRegistration(t *testing.T) {
	p, topo := testPlatform(t, 1)
	probes := p.Probes()
	if len(probes) != 8 {
		t.Fatalf("probes = %d, want 8", len(probes))
	}
	for i, pr := range probes {
		if pr.ID != i+1 {
			t.Errorf("probe %d has ID %d", i, pr.ID)
		}
		if pr.ASN != p.Net().Router(pr.Router).AS {
			t.Errorf("probe %d ASN mismatch", pr.ID)
		}
	}
	asn, ok := p.ProbeASN(1)
	if !ok || asn == 0 {
		t.Errorf("ProbeASN(1) = %v/%v", asn, ok)
	}
	if _, ok := p.ProbeASN(999); ok {
		t.Error("unknown probe resolved")
	}
	_ = topo
}

func TestMeasurementRegistration(t *testing.T) {
	p, topo := testPlatform(t, 2)
	m1 := p.AddBuiltin(topo.Roots[0].Addr)
	m2 := p.AddAnchoring(topo.Anchors[0].Addr, []int{1, 2, 3})
	if m1.Interval != 30*time.Minute || m1.Kind != Builtin {
		t.Errorf("builtin = %+v", m1)
	}
	if m2.Interval != 15*time.Minute || m2.Kind != Anchoring {
		t.Errorf("anchoring = %+v", m2)
	}
	if len(m1.Probes) != 8 || len(m2.Probes) != 3 {
		t.Errorf("probe sets: %d, %d", len(m1.Probes), len(m2.Probes))
	}
	if m2.ID != m1.ID+1 {
		t.Errorf("ids not sequential: %d, %d", m1.ID, m2.ID)
	}
	if len(p.Measurements()) != 2 {
		t.Error("measurement registry wrong")
	}
}

func TestRunProducesExpectedVolume(t *testing.T) {
	p, topo := testPlatform(t, 3)
	p.AddBuiltin(topo.Roots[0].Addr)
	to := from.Add(2 * time.Hour)
	results, err := p.Collect(from, to)
	if err != nil {
		t.Fatal(err)
	}
	// 8 probes, every 30 min, 2 hours → 4 rounds → 32 results.
	if len(results) != 32 {
		t.Fatalf("results = %d, want 32", len(results))
	}
	// Chronological order.
	for i := 1; i < len(results); i++ {
		if results[i].Time.Before(results[i-1].Time) {
			t.Fatal("results not chronological")
		}
	}
	// All results carry measurement and probe IDs and validate.
	for _, r := range results {
		if r.MsmID < 5000 || r.PrbID < 1 {
			t.Errorf("result missing ids: %+v", r)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("invalid result: %v", err)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() []trace.Result {
		p, topo := testPlatform(t, 77)
		p.AddBuiltin(topo.Roots[0].Addr)
		rs, err := p.Collect(from, from.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || a[i].PrbID != b[i].PrbID {
			t.Fatalf("schedule differs at %d", i)
		}
		if len(a[i].Hops) != len(b[i].Hops) {
			t.Fatalf("hops differ at %d", i)
		}
		for h := range a[i].Hops {
			for j := range a[i].Hops[h].Replies {
				if a[i].Hops[h].Replies[j] != b[i].Hops[h].Replies[j] {
					t.Fatalf("replies differ at result %d hop %d", i, h)
				}
			}
		}
	}
}

func TestProbesSpreadWithinInterval(t *testing.T) {
	p, topo := testPlatform(t, 5)
	p.AddBuiltin(topo.Roots[0].Addr)
	rs, err := p.Collect(from, from.Add(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Fatalf("results = %d, want 8 (one round)", len(rs))
	}
	distinct := map[time.Time]bool{}
	for _, r := range rs {
		distinct[r.Time] = true
	}
	if len(distinct) < 4 {
		t.Errorf("probes not spread: %d distinct firing times", len(distinct))
	}
}

func TestAnchoringCadence(t *testing.T) {
	p, topo := testPlatform(t, 6)
	p.AddAnchoring(topo.Anchors[0].Addr, []int{1, 2})
	rs, err := p.Collect(from, from.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// 2 probes × 4 rounds of 15 min.
	if len(rs) != 8 {
		t.Fatalf("results = %d, want 8", len(rs))
	}
}

func TestRunChunkingBoundary(t *testing.T) {
	// A run spanning a day boundary must not duplicate or drop firings.
	p, topo := testPlatform(t, 9)
	p.AddBuiltin(topo.Roots[0].Addr)
	all, err := p.Collect(from, from.Add(26*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	want := 8 * 52 // 8 probes × 52 half-hours
	if len(all) != want {
		t.Errorf("results = %d, want %d", len(all), want)
	}
	seen := map[string]bool{}
	for _, r := range all {
		key := r.Time.String() + "/" + string(rune(r.PrbID))
		if seen[key] {
			t.Fatalf("duplicate firing %s", key)
		}
		seen[key] = true
	}
}
