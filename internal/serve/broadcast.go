package serve

import "sync"

// Subscription is one delta-stream consumer. Receive from C; call Cancel
// when done. A subscriber that falls more than the channel buffer behind is
// dropped — its channel is closed after the buffered deltas drain — and
// Gap then reports the last seq that was enqueued for it, so the consumer
// (the SSE handler, which forwards a terminal `gap` event) can tell a
// resync-needed drop apart from an orderly shutdown.
type Subscription struct {
	C <-chan Delta

	b       *broadcaster
	ch      chan Delta
	id      int
	lastSeq uint64 // guarded by b.mu
	gapped  bool   // guarded by b.mu
}

// Cancel deregisters the subscription. Idempotent.
func (s *Subscription) Cancel() {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	if _, ok := s.b.subs[s.id]; ok {
		delete(s.b.subs, s.id)
		close(s.ch)
	}
}

// Gap reports whether the subscription was dropped for falling behind, and
// if so the last delta seq enqueued before the drop.
func (s *Subscription) Gap() (lastSeq uint64, dropped bool) {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.lastSeq, s.gapped
}

// broadcaster fans each published delta out to the subscriptions of
// that moment and keeps nothing: a client that missed deltas catches up
// from the snapshot (Snapshot.catchUp). Publisher and Follower embed it,
// which gives both roles Source's Subscribe and CloseSubscribers.
type broadcaster struct {
	mu     sync.Mutex
	subs   map[int]*Subscription
	nextID int
	closed bool
}

// Subscribe registers a feed subscriber. Cancel the subscription when the
// consumer goes away; a subscriber that falls more than the buffer behind
// is dropped with a gap mark (see Subscription.Gap) and resynchronizes via
// ?since= catch-up. On a closed broadcaster the returned subscription's
// channel is already closed (and not gap-marked).
func (b *broadcaster) Subscribe() *Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan Delta, 64)
	sub := &Subscription{C: ch, ch: ch, b: b, id: b.nextID}
	b.nextID++
	if b.closed {
		close(ch)
		return sub
	}
	if b.subs == nil {
		b.subs = make(map[int]*Subscription)
	}
	b.subs[sub.id] = sub
	return sub
}

// broadcast enqueues d for every subscription, dropping (and gap-marking)
// any whose buffer is full rather than stalling the producer.
func (b *broadcaster) broadcast(d Delta) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, sub := range b.subs {
		select {
		case sub.ch <- d:
			sub.lastSeq = d.Seq
		default: // slow consumer: drop it rather than stall analysis
			sub.gapped = true
			delete(b.subs, id)
			close(sub.ch)
		}
	}
}

// CloseSubscribers terminates every delta stream (server shutdown) without
// gap marking. New Subscribe calls return an already-closed channel.
func (b *broadcaster) CloseSubscribers() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for id, sub := range b.subs {
		delete(b.subs, id)
		close(sub.ch)
	}
}
