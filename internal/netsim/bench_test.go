package netsim

import (
	"math/rand/v2"
	"testing"
	"time"
)

func benchNet(b *testing.B) (*Net, *Topo) {
	b.Helper()
	topo, err := Generate(TopoConfig{Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	n, err := topo.Build(nil)
	if err != nil {
		b.Fatal(err)
	}
	return n, topo
}

// BenchmarkTracerouteWith measures the full per-traceroute cost (routing
// lookup from cache, per-packet delay/loss sampling over forward and return
// legs) with a caller-owned scratch: the per-worker configuration of the
// parallel generator. Only the returned result's two exactly-sized slices
// are allocated per op.
func BenchmarkTracerouteWith(b *testing.B) {
	n, topo := benchNet(b)
	at := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	sites := topo.ProbeSites()
	targets := topo.Targets()
	rng := rand.New(rand.NewPCG(1, 1))
	var sc TracerouteScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe := sites[i%len(sites)]
		dst := targets[i%len(targets)]
		if _, err := n.TracerouteWith(&sc, probe, dst, at, i%16, rng, TracerouteOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracerouteInto measures the zero-allocation core: the result
// aliases the scratch and is dropped, so steady-state allocs/op must be 0.
func BenchmarkTracerouteInto(b *testing.B) {
	n, topo := benchNet(b)
	at := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	sites := topo.ProbeSites()
	targets := topo.Targets()
	rng := rand.New(rand.NewPCG(1, 1))
	var sc TracerouteScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe := sites[i%len(sites)]
		dst := targets[i%len(targets)]
		if _, err := n.TracerouteInto(&sc, probe, dst, at, i%16, rng, TracerouteOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTowardTreeCold measures one Dijkstra shortest-path-tree
// computation on the default topology (the per-epoch routing cost).
func BenchmarkTowardTreeCold(b *testing.B) {
	n, topo := benchNet(b)
	sites := topo.ProbeSites()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.computeTowardTree(sites[i%len(sites)], 0)
	}
}

func BenchmarkGenerateTopology(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo, err := Generate(TopoConfig{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := topo.Build(nil); err != nil {
			b.Fatal(err)
		}
	}
}
