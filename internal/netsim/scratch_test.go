package netsim

import (
	"math/rand/v2"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"pinpoint/internal/trace"
)

type trTask struct {
	probe RouterID
	dst   netip.Addr
	paris int
	seed  uint64
}

// tracerouteTasks builds a deterministic task mix over the default topology.
func tracerouteTasks(b testing.TB) (*Net, []trTask) {
	b.Helper()
	topo, err := Generate(TopoConfig{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	n, err := topo.Build(nil)
	if err != nil {
		b.Fatal(err)
	}
	sites := topo.ProbeSites()
	targets := topo.Targets()
	tasks := make([]trTask, 0, 200)
	for i := 0; i < 200; i++ {
		tasks = append(tasks, trTask{
			probe: sites[i%len(sites)],
			dst:   targets[i%len(targets)],
			paris: i % 16,
			seed:  uint64(i + 1),
		})
	}
	return n, tasks
}

// TestTracerouteScratchReuseIdentical asserts that a single scratch reused
// across many traceroutes produces results identical to calls on a fresh
// scratch each — i.e. no state leaks between calls through the scratch.
func TestTracerouteScratchReuseIdentical(t *testing.T) {
	n, tasks := tracerouteTasks(t)
	at := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)

	var fresh []trace.Result
	for _, tk := range tasks {
		rng := rand.New(rand.NewPCG(tk.seed, tk.seed))
		r, err := n.TracerouteWith(&TracerouteScratch{}, tk.probe, tk.dst, at, tk.paris, rng, TracerouteOpts{})
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, r)
	}

	var sc TracerouteScratch
	var reused []trace.Result
	for _, tk := range tasks {
		rng := rand.New(rand.NewPCG(tk.seed, tk.seed))
		r, err := n.TracerouteWith(&sc, tk.probe, tk.dst, at, tk.paris, rng, TracerouteOpts{})
		if err != nil {
			t.Fatal(err)
		}
		reused = append(reused, r)
	}

	if !reflect.DeepEqual(fresh, reused) {
		t.Fatal("scratch-reused traceroutes differ from fresh ones")
	}
}

// TestTracerouteIntoMatchesWith asserts the aliasing fast path returns the
// same content as the copy-out path (checked immediately, before the next
// call invalidates it).
func TestTracerouteIntoMatchesWith(t *testing.T) {
	n, tasks := tracerouteTasks(t)
	at := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	var scA, scB TracerouteScratch
	for _, tk := range tasks[:50] {
		rngA := rand.New(rand.NewPCG(tk.seed, tk.seed))
		a, err := n.TracerouteInto(&scA, tk.probe, tk.dst, at, tk.paris, rngA, TracerouteOpts{})
		if err != nil {
			t.Fatal(err)
		}
		rngB := rand.New(rand.NewPCG(tk.seed, tk.seed))
		b, err := n.TracerouteWith(&scB, tk.probe, tk.dst, at, tk.paris, rngB, TracerouteOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("TracerouteInto result differs from TracerouteWith")
		}
	}
}

// TestTracerouteConcurrentDeterministic runs the task mix concurrently from
// many goroutines (per-task seeded, per-goroutine scratch) against a cold
// route cache and asserts every result matches the sequential execution —
// the contention test for the copy-on-write towardTree cache. Run with
// -race in CI.
func TestTracerouteConcurrentDeterministic(t *testing.T) {
	n, tasks := tracerouteTasks(t)
	at := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)

	want := make([]trace.Result, len(tasks))
	for i, tk := range tasks {
		rng := rand.New(rand.NewPCG(tk.seed, tk.seed))
		r, err := n.TracerouteWith(&TracerouteScratch{}, tk.probe, tk.dst, at, tk.paris, rng, TracerouteOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	// Fresh net: cold cache so concurrent goroutines race on misses.
	topo, err := Generate(TopoConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := topo.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]trace.Result, len(tasks))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc TracerouteScratch
			for i := w; i < len(tasks); i += workers {
				tk := tasks[i]
				rng := rand.New(rand.NewPCG(tk.seed, tk.seed))
				r, err := n2.TracerouteWith(&sc, tk.probe, tk.dst, at, tk.paris, rng, TracerouteOpts{})
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = r
			}
		}(w)
	}
	wg.Wait()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("concurrent traceroutes differ from sequential")
	}
}
