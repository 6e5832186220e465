package serve

import (
	"sync"
	"time"

	"pinpoint/internal/segstore"
)

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

// broadcaster fans deltas out to subscriptions and keeps the recent-delta
// ring, the in-memory cache of the feed log (see feedLog). The ring holds
// deltas by value; their slices are shared with the immutable snapshots, so
// retaining them costs headers, not copies.
type broadcaster struct {
	mu     sync.Mutex
	subs   map[int]*Subscription
	nextID int
	closed bool

	ring    []Delta // consecutive seqs, oldest first
	ringCap int
}

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: make(map[int]*Subscription), ringCap: defaultFeedWindow}
}

// subscribe registers a consumer. On a closed broadcaster the returned
// subscription's channel is already closed (and not gap-marked).
func (b *broadcaster) subscribe() *Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan Delta, 64)
	sub := &Subscription{C: ch, ch: ch, b: b, id: b.nextID}
	b.nextID++
	if b.closed {
		close(ch)
		return sub
	}
	b.subs[sub.id] = sub
	return sub
}

// broadcast retains d in the ring and enqueues it for every subscription,
// dropping (and gap-marking) any whose buffer is full rather than stalling
// the producer. The ring keeps consecutive seqs: a delta that does not
// extend it by one (a follower's Full resync) starts it over.
func (b *broadcaster) broadcast(d Delta) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := len(b.ring); n > 0 && d.Seq != b.ring[n-1].Seq+1 {
		b.ring = b.ring[:0]
	}
	b.ring = append(b.ring, d)
	if len(b.ring) > b.ringCap {
		// Amortized trim: slide rather than reallocating per delta.
		b.ring = append(b.ring[:0], b.ring[len(b.ring)-b.ringCap:]...)
	}
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

// at returns the ring's delta with the given seq. The ring keeps
// consecutive seqs, so this is an index, not a scan.
func (b *broadcaster) at(seq uint64) (Delta, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.ring) == 0 || seq < b.ring[0].Seq || seq-b.ring[0].Seq >= uint64(len(b.ring)) {
		return Delta{}, false
	}
	return b.ring[seq-b.ring[0].Seq], true
}

// closeAll terminates every subscription (server shutdown) without gap
// marking. New subscribe calls return an already-closed channel.
func (b *broadcaster) closeAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for id, sub := range b.subs {
		delete(b.subs, id)
		close(sub.ch)
	}
}

// feedLog is the one in-order log of feed deltas a role can replay, shared
// by Publisher and Follower: the broadcaster's ring caches the most recent
// deltas, and the segment store — the writer's own, or a follower's
// read-only bootstrap files — holds every committed bin, record i being
// delta seq i+2. storeMu serializes the writer's commits with catch-up and
// /api/bins reads (the store's decode scratch is shared); binIndex lists
// the committed bins.
type feedLog struct {
	bc      *broadcaster
	binSize time.Duration

	store    *segstore.Store
	storeMu  sync.Mutex
	binIndex []BinSummary
}

// Subscribe registers a feed subscriber. Cancel the subscription when the
// consumer goes away; a subscriber that falls more than the buffer behind
// is dropped with a gap mark (see Subscription.Gap) and resynchronizes via
// ?since= catch-up.
func (l *feedLog) Subscribe() *Subscription { return l.bc.subscribe() }

// CloseSubscribers terminates every delta stream (server shutdown). New
// Subscribe calls return an already-closed channel.
func (l *feedLog) CloseSubscribers() { l.bc.closeAll() }

// CatchUp returns the feed deltas covering (since, upTo] in one walk: each
// seq comes from the ring when it holds it, else from committed store
// record seq−2; seq 1 is every run's empty initial publication. ok=false
// means some seq is in neither (or the client is ahead: since > upTo) — the
// caller falls back to a single Full delta.
//
// Store-synthesized deltas are the exact appends the live feed carried, for
// any client whose state is a prefix of the committed history — including
// one that tracked a previous incarnation of this writer, because a
// restart never rewrites committed bins.
func (l *feedLog) CatchUp(since, upTo uint64) ([]Delta, bool) {
	if since > upTo {
		return nil, false
	}
	out := make([]Delta, 0, upTo-since)
	var rec segstore.BinRecord
	for seq := since + 1; seq <= upTo; seq++ {
		d, ok := l.bc.at(seq)
		if !ok && seq == 1 {
			d, ok = deltaFromRecord(&segstore.BinRecord{}, 1, l.binSize), true
		}
		if !ok && l.store != nil {
			l.storeMu.Lock()
			if seq-2 < uint64(len(l.binIndex)) && l.store.Record(int(seq-2), &rec) == nil {
				d, ok = deltaFromRecord(&rec, seq, l.binSize), true
			}
			l.storeMu.Unlock()
		}
		if !ok {
			return nil, false
		}
		out = append(out, d)
	}
	return out, true
}
