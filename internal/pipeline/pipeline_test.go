package pipeline

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// count emits 0..n-1 and reports whether it was allowed to finish.
func count(n int, finished *bool) func(emit func(int) bool) {
	return func(emit func(int) bool) {
		for i := range n {
			if !emit(i) {
				return
			}
		}
		if finished != nil {
			*finished = true
		}
	}
}

func identity() func(int) int { return func(i int) int { return i } }

// waitGoroutines polls until the goroutine count is back at (or below) base:
// Ordered has returned by then, its goroutines are at most still unwinding.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Items that finish out of order — early items are the slowest, so every
// worker but the first runs ahead of sequence — are delivered in emission
// order, each transformed by exactly one of `workers` private closures.
func TestOrderedUnderSkewedLatency(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 3, 4, 8} {
		var closures atomic.Int32
		var got []int
		finished := false
		err := Ordered(context.Background(), workers, count(n, &finished),
			func() func(int) int {
				closures.Add(1)
				calls := 0 // private to this worker: the race detector watches it
				return func(i int) int {
					calls++
					time.Sleep(time.Duration((n-i)%7) * 50 * time.Microsecond)
					return i * i
				}
			},
			func(v int) error {
				got = append(got, v)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i * i
		}
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: delivery order differs from emission order: %v", workers, got)
		}
		if !finished {
			t.Fatalf("workers=%d: producer was stopped early", workers)
		}
		if int(closures.Load()) != workers {
			t.Fatalf("workers=%d: newWorker called %d times", workers, closures.Load())
		}
	}
}

// With a consumer slower than the producer the pipeline fills up, and stops
// filling at 4×workers items between emit and deliver.
func TestOrderedInFlightBound(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		var emitted atomic.Int64
		delivered, ahead := int64(0), int64(math.MinInt64)
		err := Ordered(context.Background(), workers,
			func(emit func(int) bool) {
				for i := 0; i < 40*workers && emit(i); i++ {
					emitted.Add(1)
				}
			},
			identity,
			func(int) error {
				delivered++ // this item has left flight
				ahead = max(ahead, emitted.Load()-delivered)
				time.Sleep(200 * time.Microsecond)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if bound := int64(4 * workers); ahead > bound {
			t.Fatalf("workers=%d: %d items in flight, bound is %d", workers, ahead, bound)
		}
		if workers > 1 && ahead <= 0 {
			t.Fatalf("workers=%d: the producer never ran ahead of delivery", workers)
		}
		if workers == 1 && ahead >= 0 {
			t.Fatalf("inline: item produced before the previous one was delivered (ahead=%d)", ahead)
		}
	}
}

// The first deliver error is the result, and nothing after the failing item
// is delivered — whatever the workers had already finished.
func TestOrderedDeliverErrorWithholdsLaterItems(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 3, 4, 8} {
		base := runtime.NumGoroutine()
		var got []int
		finished := false
		err := Ordered(context.Background(), workers, count(1<<30, &finished), identity,
			func(v int) error {
				got = append(got, v)
				if v == 10 {
					return boom
				}
				return nil
			})
		if err != boom {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}; !slices.Equal(got, want) {
			t.Fatalf("workers=%d: delivered %v, want %v", workers, got, want)
		}
		if finished {
			t.Fatalf("workers=%d: producer ran to completion after the error", workers)
		}
		waitGoroutines(t, base)
	}
}

// A canceled ctx returns ctx.Err() once the producer — here an endless one,
// so only cancellation can stop it — and every worker have exited.
func TestOrderedCancelStopsAllStages(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var producerExited atomic.Bool
		err := Ordered(ctx, workers,
			func(emit func(int) bool) {
				defer producerExited.Store(true)
				for i := 0; emit(i); i++ {
				}
			},
			identity,
			func(v int) error {
				if v == 20 {
					cancel()
				}
				return nil
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if !producerExited.Load() {
			t.Fatalf("workers=%d: Ordered returned with the producer still running", workers)
		}
		waitGoroutines(t, base)
	}
}

// A finished run under a canceled ctx still reports the cancellation: the
// caller cannot tell a complete stream from a truncated one otherwise.
func TestOrderedReportsCancelAfterCompletion(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		err := Ordered(ctx, workers, count(5, nil), identity, func(int) error {
			if n++; n == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) || n != 5 {
			t.Fatalf("workers=%d: err = %v after %d deliveries, want context.Canceled after 5", workers, err, n)
		}
	}
}

// workers == 1 is the mode every gated benchmark pass runs: all three stages
// on the caller's goroutine, none started.
func TestOrderedInlineStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	check := func(stage string) {
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines, %d before the call", stage, n, base)
		}
	}
	for _, workers := range []int{0, 1} {
		err := Ordered(context.Background(), workers,
			func(emit func(int) bool) {
				for i := 0; i < 10 && emit(i); i++ {
					check("produce")
				}
			},
			func() func(int) int {
				return func(i int) int { check("worker"); return i }
			},
			func(int) error { check("deliver"); return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
}
