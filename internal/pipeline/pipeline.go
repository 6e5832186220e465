// Package pipeline holds the repo's one ordered-parallel primitive: a serial
// producer, N transforming workers and a serial consumer that sees outputs in
// exactly the order the inputs were emitted. The measurement generator
// (internal/atlas) and the dump decoder (internal/ingest) are both one call
// into Ordered; what keeps their output bit-identical for every worker count
// — items cut by the producer alone, a transform that is a function of its
// item alone, every policy decision made at delivery — is theirs, the
// sequencing, the back-pressure and the shutdown are here.
package pipeline

import (
	"context"
	"sync"
)

// numbered tags an item with its emission sequence number: workers finish
// out of order, delivery releases strictly by seq.
type numbered[T any] struct {
	seq uint64
	v   T
}

// Ordered runs produce → workers → deliver and returns once every stage has
// stopped.
//
// produce runs on one goroutine and hands each item to emit. emit returning
// false means the pipeline is stopping and produce must return promptly. An
// item handed to emit belongs to the pipeline whatever emit returns.
// newWorker is called once per worker and returns that worker's transform, so
// whatever the closure captures (PRNG, scratch buffers, decoder memos) is
// private to one goroutine. deliver runs on the caller's goroutine and
// receives the outputs strictly in emission order. At most 4×workers items
// are between emit and deliver at any time: a slow consumer stalls the
// producer rather than growing the reorder buffer.
//
// The first error from deliver stops all stages, withholds every later item
// and is returned. Otherwise the result is ctx.Err(): cancellation stops the
// stages the same way, and deliver may not have seen every emitted item.
//
// With workers ≤ 1 all three stages run inline on the caller's goroutine —
// no goroutine, no channel — and each item is delivered before the next is
// produced.
func Ordered[In, Out any](ctx context.Context, workers int,
	produce func(emit func(In) bool), newWorker func() func(In) Out, deliver func(Out) error) error {
	if workers <= 1 {
		work := newWorker()
		var err error
		produce(func(in In) bool {
			if err = ctx.Err(); err == nil {
				err = deliver(work(in))
			}
			return err == nil
		})
		if err == nil {
			err = ctx.Err()
		}
		return err
	}

	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	in := make(chan numbered[In], workers)
	out := make(chan numbered[Out], workers)
	window := make(chan struct{}, 4*workers) // in-flight bound, and with it the reorder buffer's

	// stages counts the producer and the workers; out closes once all of
	// them have exited, which is what ends the delivery loop below.
	var stages sync.WaitGroup
	stages.Add(1 + workers)
	go func() {
		defer stages.Done()
		defer close(in)
		var seq uint64
		produce(func(v In) bool {
			select {
			case window <- struct{}{}:
			case <-ctx2.Done():
				return false
			}
			select {
			case in <- numbered[In]{seq, v}:
				seq++
				return true
			case <-ctx2.Done():
				return false
			}
		})
	}()
	for range workers {
		go func() {
			defer stages.Done()
			work := newWorker()
			for it := range in {
				select {
				case out <- numbered[Out]{it.seq, work(it.v)}:
				case <-ctx2.Done():
					return
				}
			}
		}()
	}
	go func() {
		stages.Wait()
		close(out)
	}()

	// Reorder on the caller's goroutine: pending holds outputs that finished
	// ahead of sequence, at most a window's worth.
	var (
		next    uint64
		err     error
		pending = make(map[uint64]Out, 4*workers)
	)
	for it := range out {
		pending[it.seq] = it.v
		for err == nil {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			<-window // the item leaves flight; the producer may refill
			err = deliver(v)
		}
		if err != nil {
			cancel() // stop producer and workers; out will close
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	return err
}
