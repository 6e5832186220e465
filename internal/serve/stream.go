package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// sseHeartbeat is the comment-line keepalive cadence for /api/stream.
const sseHeartbeat = 15 * time.Second

// handleStream is the replication feed endpoint: one `hello` event carrying
// the protocol version, run identity and current snapshot position, then
// one `delta` event per snapshot publication (bin close or run completion).
//
// A client holding state from an earlier connection passes ?since=SEQ; the
// seqs (since, current] are cut from the snapshot first, or one Full delta
// when since has no mark — which includes a client ahead of this server
// (since > current: the writer came back without its history, and whatever
// the client holds is not a prefix of it). See Snapshot.catchUp. The
// subscription is registered before the snapshot is read, so no delta can
// fall between the catch-up and the live stream; live appends at or below
// the snapshot's seq are skipped instead of duplicated. A live Full delta
// is never skipped, whatever its seq: it is this role's own resync (a
// follower whose upstream came back with a shorter history), and a client
// that missed it would append the new history onto the old one.
//
// A subscriber dropped for falling behind gets a terminal `gap` event with
// the last delivered seq, so clients can tell "resync needed" (reconnect
// with since=) from "run complete" (terminal delta) and "server shutdown"
// (plain EOF).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var since uint64
	haveSince := false
	if raw := r.URL.Query().Get("since"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("invalid since: %v", err), http.StatusBadRequest)
			return
		}
		since, haveSince = n, true
	}

	sub := s.src.Subscribe()
	defer sub.Cancel()
	snap := s.src.Snapshot()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	if !s.sseEvent(w, fl, "hello", helloFor(snap)) {
		return
	}
	if haveSince {
		for d := range snap.catchUp(since) {
			if !s.sseEvent(w, fl, "delta", d) {
				return
			}
		}
	}
	if snap.Complete() {
		// Terminal snapshot already published: nothing further will come.
		return
	}

	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		select {
		case d, ok := <-sub.C:
			if !ok {
				if last, dropped := sub.Gap(); dropped {
					// Dropped as too slow: tell the client where the feed
					// left off so it can reconnect with ?since=.
					s.sseEvent(w, fl, "gap", gapJSON{LastSeq: last})
				}
				return
			}
			if !d.Full && d.Seq <= snap.Seq {
				continue // already reflected in the hello/catch-up
			}
			if !s.sseEvent(w, fl, "delta", d) {
				return
			}
			if d.Done || d.Failed {
				return
			}
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// sseEvent writes one named SSE event. Encode errors are logged and end the
// stream (the SSE framing cannot carry a half-event); write errors mean the
// client left.
func (s *Server) sseEvent(w http.ResponseWriter, fl http.Flusher, name string, v any) bool {
	b, err := json.Marshal(v)
	if err != nil {
		s.opts.Logf("serve: encoding SSE %s: %v", name, err)
		return false
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, b); err != nil {
		return false
	}
	fl.Flush()
	return true
}
