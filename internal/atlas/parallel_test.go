package atlas

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"pinpoint/internal/trace"
)

// parallelPlatform builds a platform with enough schedule structure to
// stress the reorder buffer: builtin + anchoring measurements at two
// cadences over overlapping probe sets.
func parallelPlatform(t *testing.T, seed uint64) *Platform {
	t.Helper()
	p, topo := testPlatform(t, seed)
	p.AddBuiltin(topo.Roots[0].Addr)
	p.AddAnchoring(topo.Anchors[0].Addr, []int{1, 2, 3, 4})
	p.AddAnchoring(topo.Anchors[1].Addr, []int{3, 5, 7})
	return p
}

func TestRunParallelBitIdentical(t *testing.T) {
	to := from.Add(6 * time.Hour)
	seq := parallelPlatform(t, 31)
	want, err := seq.Collect(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty sequential baseline")
	}
	for _, workers := range []int{2, 3, 4, 8} {
		par := parallelPlatform(t, 31)
		par.SetWorkers(workers)
		got, err := par.Collect(from, to)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: parallel stream differs from sequential (%d vs %d results)",
				workers, len(got), len(want))
		}
	}
}

func TestRunChunksGroupingIdentical(t *testing.T) {
	to := from.Add(4 * time.Hour)
	collect := func(workers, chunkSize int) [][]int {
		p := parallelPlatform(t, 32)
		if workers > 1 {
			p.SetWorkers(workers)
		}
		var chunks [][]int
		err := p.RunChunks(context.Background(), from, to, chunkSize, func(rs []trace.Result) error {
			prbs := make([]int, 0, len(rs))
			for _, r := range rs {
				prbs = append(prbs, r.PrbID)
			}
			chunks = append(chunks, prbs)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return chunks
	}
	want := collect(1, 7)
	for _, workers := range []int{2, 4} {
		if got := collect(workers, 7); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: chunk grouping differs", workers)
		}
	}
}

// TestRunChunksMatchesCollect pins RunChunks' delivery contract against the
// per-result path: for one worker and several, every chunk holds 1..chunkSize
// results and the chunks concatenate to exactly the sequential Collect.
func TestRunChunksMatchesCollect(t *testing.T) {
	to := from.Add(3 * time.Hour)
	want, err := parallelPlatform(t, 33).Collect(from, to)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ workers, chunkSize int }{{1, 5}, {4, 16}} {
		p := parallelPlatform(t, 33)
		p.SetWorkers(c.workers)
		var got []trace.Result
		err := p.RunChunks(context.Background(), from, to, c.chunkSize, func(rs []trace.Result) error {
			if len(rs) == 0 || len(rs) > c.chunkSize {
				t.Fatalf("workers=%d: chunk size %d, want 1..%d", c.workers, len(rs), c.chunkSize)
			}
			got = append(got, rs...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: chunked run delivered %d results, Collect %d, or order differs",
				c.workers, len(got), len(want))
		}
	}
}

func TestRunParallelFnErrorAborts(t *testing.T) {
	p := parallelPlatform(t, 34)
	p.SetWorkers(4)
	boom := errors.New("boom")
	n := 0
	err := p.Run(from, from.Add(24*time.Hour), func(r trace.Result) error {
		n++
		if n == 50 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 50 {
		t.Fatalf("fn called %d times after abort, want exactly 50", n)
	}
}

func TestRunChunksParallelCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := parallelPlatform(t, 35)
		p.SetWorkers(workers)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls := 0
		err := p.RunChunks(ctx, from, from.Add(1000*time.Hour), 8, func(rs []trace.Result) error {
			calls++
			if calls == 3 {
				cancel()
			}
			return ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if calls != 3 {
			t.Fatalf("workers=%d: fn called %d times, want 3 (nothing delivered after the cancel)", workers, calls)
		}
	}
}

func TestParallelCollectDeterministicAcrossRuns(t *testing.T) {
	to := from.Add(2 * time.Hour)
	run := func() []trace.Result {
		p := parallelPlatform(t, 36)
		p.SetWorkers(3)
		rs, err := p.Collect(from, to)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("two parallel runs differ")
	}
}

// TestTaskErrorParitySeqVsPar pins the error-path contract: a mid-campaign
// task failure (unresolvable measurement target) must leave the consumed
// stream identical for sequential and parallel runs — RunChunks drops the
// partially filled chunk the error interrupts in both modes.
func TestTaskErrorParitySeqVsPar(t *testing.T) {
	to := from.Add(4 * time.Hour)
	run := func(workers int) ([]trace.Result, error) {
		p, topo := testPlatform(t, 39)
		p.AddBuiltin(topo.Roots[0].Addr)
		p.AddCustom(netip.MustParseAddr("203.0.113.250"), time.Hour, []int{3}) // not in the net
		if workers > 1 {
			p.SetWorkers(workers)
		}
		var got []trace.Result
		err := p.RunChunks(context.Background(), from, to, 8, func(rs []trace.Result) error {
			got = append(got, rs...)
			return nil
		})
		return got, err
	}
	want, wantErr := run(1)
	if wantErr == nil {
		t.Fatal("sequential run did not surface the task error")
	}
	for _, workers := range []int{2, 4} {
		got, err := run(workers)
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, wantErr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: consumed %d results before error, sequential consumed %d",
				workers, len(got), len(want))
		}
	}
}

func TestRunRejectsUnknownProbe(t *testing.T) {
	p, topo := testPlatform(t, 38)
	p.AddAnchoring(topo.Anchors[0].Addr, []int{1, 999})
	if err := p.Run(from, from.Add(time.Hour), func(trace.Result) error { return nil }); err == nil {
		t.Fatal("sequential Run accepted a measurement with an unknown probe")
	}
	p.SetWorkers(2)
	if err := p.Run(from, from.Add(time.Hour), func(trace.Result) error { return nil }); err == nil {
		t.Fatal("parallel Run accepted a measurement with an unknown probe")
	}
}

func TestSetWorkersAutoIsPositive(t *testing.T) {
	p, _ := testPlatform(t, 37)
	p.SetWorkers(0)
	if p.Workers() < 1 {
		t.Fatalf("Workers() = %d after SetWorkers(0)", p.Workers())
	}
}
