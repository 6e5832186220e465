package serve

// Follower is the replica role: it dials a writer's replication feed,
// rebuilds byte-identical snapshots by applying decoded deltas to the same
// mirror the writer assembles from, and serves the full read API from them.
// N followers behind any load balancer form a horizontally scalable read
// tier over one writer.
//
// State machine:
//
//	connect     — GET {url}/api/stream?since={seq}, from seq 0: the feed is
//	              a replica's only source of history. The hello validates the
//	              protocol version and run identity and supplies Meta and
//	              the bin size.
//	tail        — apply each delta in seq order, publish a snapshot per
//	              delta, re-broadcast on the follower's own feed (replicas
//	              chain). Stale appends (seq ≤ mirror's) are skipped; a Full
//	              delta replaces the mirror whatever its seq.
//	resync      — a seq gap, a `gap` event (dropped as too slow), or a
//	              dropped connection returns to connect with since=seq; the
//	              upstream cuts the missing appends from its snapshot (a
//	              restarted writer's committed history is a valid extension
//	              of the mirror's prefix), or sends one Full delta when it
//	              has no mark at seq — also when the mirror is ahead of it,
//	              i.e. the writer came back without its history.
//	terminal    — a Done/Failed delta ends the run; Run returns nil.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// The exponential backoff between a follower's connection attempts starts
// at reconnectMin and doubles up to reconnectMax.
const (
	reconnectMin = 100 * time.Millisecond
	reconnectMax = 5 * time.Second
)

// FollowerOptions configures a Follower. URL is required; everything else
// has serviceable defaults.
type FollowerOptions struct {
	// URL is the writer's base URL (e.g. "http://writer:8080").
	URL string

	// Logf receives connection diagnostics. Default: discard.
	Logf func(format string, args ...any)

	// reconnectMin and reconnectMax, when positive, replace the backoff
	// bounds of the same names; tests shorten them.
	reconnectMin, reconnectMax time.Duration
}

// Follower tails a writer's replication feed and serves read-only
// snapshots. It implements Source, so NewServer works on it unchanged.
type Follower struct {
	broadcaster // the follower's own feed, for replicas chained behind it

	opts FollowerOptions

	// m is owned by the Run goroutine; readers only touch the published
	// snapshot.
	m   mirror
	cur atomic.Pointer[Snapshot]
}

// NewFollower builds a follower at seq 0. The feed is not dialed until Run;
// the run's metadata and bin size come from the upstream's hello.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if opts.URL == "" {
		return nil, errors.New("serve: follower needs a writer URL")
	}
	if opts.reconnectMin <= 0 {
		opts.reconnectMin = reconnectMin
	}
	if opts.reconnectMax <= 0 {
		opts.reconnectMax = reconnectMax
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	f := &Follower{opts: opts, m: newMirror(Meta{}, 0)}
	f.cur.Store(f.m.assemble())
	return f, nil
}

// Snapshot returns the current rebuilt snapshot. Never nil; seq 0 before
// the first delta lands.
func (f *Follower) Snapshot() *Snapshot { return f.cur.Load() }

// Results returns the snapshot's result count (followers have no live
// between-publish counter; the feed is the only result source).
func (f *Follower) Results() int64 { return f.cur.Load().Results }

// errFeedGap asks the run loop to reconnect and resync via ?since=.
var errFeedGap = errors.New("serve: feed gap")

// maxSSELine caps one SSE line (one delta payload) on the feed. An event
// beyond it is a permanent failure: reconnecting would refetch the same
// oversized payload forever.
const maxSSELine = 64 << 20

// Run tails the writer until the run completes, the context is canceled,
// or a permanent protocol/identity mismatch is hit. Transient failures
// (connection loss, slow-subscriber drops, seq gaps) reconnect with
// backoff and resync through the catch-up protocol.
func (f *Follower) Run(ctx context.Context) error {
	defer f.CloseSubscribers()
	backoff := f.opts.reconnectMin
	for {
		seqBefore := f.m.seq
		err := f.tail(ctx)
		if f.m.seq != seqBefore {
			// The connection applied at least one delta: the feed is healthy
			// again, so later transient flaps start from a fresh backoff
			// instead of inheriting the max from flaps hours ago.
			backoff = f.opts.reconnectMin
		}
		if snap := f.cur.Load(); snap.Complete() {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if err != nil {
			f.opts.Logf("serve: follower reconnecting after: %v", err)
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > f.opts.reconnectMax {
			backoff = f.opts.reconnectMax
		}
	}
}

// permanentError wraps failures no reconnect can fix (protocol version or
// run identity mismatch).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }

// tail runs one feed connection: dial with since=seq, validate the hello,
// apply deltas until the stream ends.
func (f *Follower) tail(ctx context.Context) error {
	url := f.opts.URL + "/api/stream?since=" + strconv.FormatUint(f.m.seq, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return &permanentError{err}
	}
	// The default client has no timeout: the stream is long-lived.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: feed returned %s", resp.Status)
	}

	sawHello := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxSSELine)
	var event string
	var data []byte
	haveData := false
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0: // blank line: dispatch the accumulated event
			if event == "" && !haveData {
				continue
			}
			ev, payload := event, data
			event, data, haveData = "", nil, false
			if !sawHello {
				if ev != "hello" {
					return fmt.Errorf("serve: feed started with %q, want hello", ev)
				}
				if err := f.applyHello(payload); err != nil {
					return err
				}
				sawHello = true
				continue
			}
			switch ev {
			case "delta":
				done, err := f.applyDelta(payload)
				if err != nil || done {
					return err
				}
			case "gap":
				// Dropped as too slow upstream: resync via since=.
				return errFeedGap
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			// Successive data lines join with '\n' per the SSE spec (our
			// writer emits single-line JSON, but a spec-correct decode must
			// not silently concatenate a future multi-line payload).
			if haveData {
				data = append(data, '\n')
			}
			data = append(data, line[len("data: "):]...)
			haveData = true
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// Retrying cannot shrink the event: every reconnect would fetch
			// the same oversized payload and fail again, so surface the
			// failure instead of resyncing forever.
			return &permanentError{fmt.Errorf("serve: feed event exceeds the %dMB limit: %w", maxSSELine>>20, err)}
		}
		return err
	}
	// Clean EOF: the writer shut down or the complete run's stream ended.
	return nil
}

// applyHello validates the feed identity and synchronizes run metadata.
func (f *Follower) applyHello(payload []byte) error {
	h, err := decodeHello(payload)
	if err != nil {
		return fmt.Errorf("serve: decoding hello: %w", err)
	}
	if h.Proto != FeedProto {
		return &permanentError{fmt.Errorf("serve: writer speaks feed proto %d, follower %d", h.Proto, FeedProto)}
	}
	if h.BinNS <= 0 {
		// A writer always knows its bin size; a zero one means the upstream
		// is itself a follower that has not synchronized yet (replica chains
		// boot in any order). Transient: back off and redial.
		return errors.New("serve: upstream feed not synchronized yet")
	}
	if f.m.meta.Case != "" && h.Case != f.m.meta.Case {
		return &permanentError{fmt.Errorf("serve: writer serves case %q, follower expects %q", h.Case, f.m.meta.Case)}
	}
	if f.m.binSize > 0 && h.BinNS != f.m.binSize {
		return &permanentError{fmt.Errorf("serve: writer bin size %v, follower %v", h.BinNS, f.m.binSize)}
	}
	f.m.meta = Meta{Case: h.Case, Description: h.Description, Start: h.Start, End: h.End}
	f.m.binSize = h.BinNS
	f.cur.Store(f.m.assemble())
	return nil
}

// applyDelta advances the mirror by one decoded delta, publishes the
// resulting snapshot and re-broadcasts downstream. done reports a terminal
// delta.
func (f *Follower) applyDelta(payload []byte) (done bool, err error) {
	d, err := decodeDelta(payload)
	if err != nil {
		return false, fmt.Errorf("serve: decoding delta: %w", err)
	}
	switch {
	case d.Full:
		// Correct from any state, including a mirror ahead of a writer that
		// came back without its history — there seq order means nothing.
		if f.m.seq > 0 {
			f.opts.Logf("serve: follower resynchronizing: full delta at seq %d replaces state at seq %d", d.Seq, f.m.seq)
		}
	case d.Seq <= f.m.seq:
		return false, nil // already reflected (hello overlap on reconnect)
	case d.Seq != f.m.seq+1:
		return false, errFeedGap
	}
	f.m.apply(&d)
	f.cur.Store(f.m.assemble())
	f.broadcast(d)
	return d.Done || d.Failed, nil
}
