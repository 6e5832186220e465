package netsim

import (
	"math/rand/v2"
	"testing"
)

func TestDelayModelSample(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	m := DelayModel{BaseMS: 5, JitterMS: 0.5}
	for i := 0; i < 1000; i++ {
		v := m.Sample(rng, 0)
		if v < 5 {
			t.Fatalf("sample %v below base (half-normal jitter is non-negative)", v)
		}
		if v > 5+10*0.5 {
			t.Fatalf("sample %v implausibly large without spikes", v)
		}
	}
}

func TestDelayModelExtra(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	m := DelayModel{BaseMS: 5}
	if v := m.Sample(rng, 100); v < 105 {
		t.Errorf("extra delay not applied: %v", v)
	}
}

func TestDelayModelSpikes(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	m := DelayModel{BaseMS: 5, SpikeProb: 0.5, SpikeMS: 100}
	spiked := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if m.Sample(rng, 0) > 20 {
			spiked++
		}
	}
	frac := float64(spiked) / n
	if frac < 0.3 || frac > 0.6 {
		t.Errorf("spike fraction = %v, want ≈ 0.5 (minus small spikes)", frac)
	}
}

func TestDelayModelOutliers(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	m := DelayModel{BaseMS: 5, OutlierProb: 0.01, OutlierMS: 600}
	huge := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.Sample(rng, 0) > 100 {
			huge++
		}
	}
	// ~1% outliers with mean 600 → most exceed 100ms.
	frac := float64(huge) / n
	if frac < 0.005 || frac > 0.02 {
		t.Errorf("outlier fraction = %v, want ≈ 0.008", frac)
	}
}

func TestNeighbors(t *testing.T) {
	n, ids := lineTopology(t, nil)
	nb := n.Neighbors(ids["P"])
	if len(nb) != 2 {
		t.Fatalf("P neighbors = %v, want A and D", nb)
	}
	seen := map[RouterID]bool{}
	for _, r := range nb {
		seen[r] = true
	}
	if !seen[ids["A"]] || !seen[ids["D"]] {
		t.Errorf("P neighbors = %v", nb)
	}
}
