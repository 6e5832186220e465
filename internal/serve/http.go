package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pinpoint/internal/ipmap"
)

// Options configures the HTTP server. Zero values get production defaults.
type Options struct {
	Addr string // listen address; default ":8080"

	ReadHeaderTimeout time.Duration // default 5s
	ReadTimeout       time.Duration // default 10s
	IdleTimeout       time.Duration // default 2m
	ShutdownGrace     time.Duration // default 5s

	// Logf receives serving diagnostics (encode/write failures, lifecycle).
	// Default log.Printf.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = ":8080"
	}
	if o.ReadHeaderTimeout == 0 {
		o.ReadHeaderTimeout = 5 * time.Second
	}
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 10 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.ShutdownGrace == 0 {
		o.ShutdownGrace = 5 * time.Second
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Source is what the HTTP API serves from: a snapshot producer with a
// replication feed. Publisher (the writer role) and Follower (the replica
// role) both implement it, so one Server works unchanged on either side of
// the split.
type Source interface {
	// Snapshot returns the current immutable snapshot; never nil.
	Snapshot() *Snapshot
	// Results returns the live ingested-result count (snapshot count plus
	// anything observed since the last publication).
	Results() int
	// Subscribe registers a feed subscriber.
	Subscribe() *Subscription
	// CloseSubscribers terminates every feed stream (server shutdown).
	CloseSubscribers()
	// CatchUp returns the feed deltas covering (since, upTo], or ok=false
	// when they are not all available (the stream handler then sends one
	// Full delta).
	CatchUp(since, upTo uint64) ([]Delta, bool)
	// StoreBins, StoreBin and HasStore expose the committed-segment index
	// for /api/bins time travel.
	StoreBins() ([]BinSummary, bool)
	StoreBin(bin time.Time) (*BinPayload, bool, error)
	HasStore() bool
}

// Server is the lock-free HTTP API over a Source's snapshots.
//
//	GET /api/status            analysis progress and run outcome
//	GET /api/alarms/delay      delay-change alarms (filter + paginate)
//	GET /api/alarms/forwarding forwarding anomalies (filter + paginate)
//	GET /api/events            major per-AS events (filter + paginate)
//	GET /api/magnitude?asn=N   hourly magnitude series for one AS
//	GET /api/bins              committed segment-store bins (time travel)
//	GET /api/stream            versioned replication feed (SSE, ?since=)
//	GET /                      human-readable summary
type Server struct {
	src  Source
	mux  *http.ServeMux
	opts Options
}

// NewServer builds the API around a snapshot source — the writer's
// Publisher or a replica's Follower.
func NewServer(src Source, opts Options) *Server {
	s := &Server{src: src, mux: http.NewServeMux(), opts: opts.withDefaults()}
	s.mux.HandleFunc("/api/status", s.handleStatus)
	s.mux.HandleFunc("/api/alarms/delay", s.handleDelayAlarms)
	s.mux.HandleFunc("/api/alarms/forwarding", s.handleFwdAlarms)
	s.mux.HandleFunc("/api/events", s.handleEvents)
	s.mux.HandleFunc("/api/magnitude", s.handleMagnitude)
	s.mux.HandleFunc("/api/bins", s.handleBins)
	s.mux.HandleFunc("/api/stream", s.handleStream)
	s.mux.HandleFunc("/", s.handleIndex)
	return s
}

// Handler exposes the routing table (tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves until ctx is canceled, then shuts down gracefully:
// in-flight requests get ShutdownGrace to finish, SSE streams are released
// by closing their subscriptions. A closed listener after cancellation is
// reported as nil.
func (s *Server) ListenAndServe(ctx context.Context) error {
	srv := &http.Server{
		Addr:              s.opts.Addr,
		Handler:           s.mux,
		ReadHeaderTimeout: s.opts.ReadHeaderTimeout,
		ReadTimeout:       s.opts.ReadTimeout,
		// No WriteTimeout: /api/stream is long-lived by design. Slow plain
		// readers are bounded by the snapshot model instead — they can only
		// stall themselves.
		IdleTimeout: s.opts.IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.src.CloseSubscribers() // unblock SSE handlers so Shutdown can drain
	grace, cancel := context.WithTimeout(context.Background(), s.opts.ShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(grace); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// payloadCache lazily renders one endpoint's default payload for a
// snapshot. Snapshots are immutable, so the render happens at most once per
// snapshot per endpoint and is then served byte-for-byte, with an ETag
// derived from the bytes.
type payloadCache struct {
	once sync.Once
	data []byte
	etag string
	err  error
}

func (c *payloadCache) get(build func() any) ([]byte, string, error) {
	c.once.Do(func() {
		c.data, c.err = encodePayload(build())
		if c.err == nil {
			h := fnv.New64a()
			h.Write(c.data)
			c.etag = fmt.Sprintf("\"%x\"", h.Sum64())
		}
	})
	return c.data, c.etag, c.err
}

// encodePayload renders exactly what the legacy json.Encoder with two-space
// indent produced: MarshalIndent plus a trailing newline. Marshal-first
// means an encoding failure never truncates a half-written 200 response.
func encodePayload(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeJSON encodes v and writes it as one response. Encode errors surface
// as a clean 500 (nothing has been written yet); write errors — the client
// went away — are logged only.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	b, err := encodePayload(v)
	if err != nil {
		s.opts.Logf("serve: encoding response: %v", err)
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(b); err != nil {
		s.opts.Logf("serve: writing response: %v", err)
	}
}

// serveCached serves a snapshot's pre-encoded default payload with strong
// ETag revalidation. Snapshots are immutable, so the bytes-derived ETag is
// valid mid-run too: it is stable across no-op polls of the same snapshot
// and changes exactly when a bin close (or completion) publishes new bytes.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, snap *Snapshot, c *payloadCache, build func() any) {
	b, etag, err := c.get(build)
	if err != nil {
		s.opts.Logf("serve: encoding response: %v", err)
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" && match == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(b); err != nil {
		s.opts.Logf("serve: writing response: %v", err)
	}
}

// query is the parsed filter/pagination parameter set shared by the alarm
// and event endpoints.
type query struct {
	from, to                           time.Time
	haveFrom, haveTo                   bool
	link, router, dst                  string
	asn                                string
	typ                                string
	minDev, minRho, minMag             float64
	haveMinDev, haveMinRho, haveMinMag bool

	paged  bool
	cursor int
	limit  int
}

// anyFilter reports whether any narrowing filter is active (pagination
// aside) — unfiltered, unpaged requests ride the pre-encoded payload.
func (q query) anyFilter() bool {
	return q.haveFrom || q.haveTo || q.link != "" || q.router != "" || q.dst != "" ||
		q.asn != "" || q.typ != "" || q.haveMinDev || q.haveMinRho || q.haveMinMag
}

func parseQuery(r *http.Request) (query, error) {
	var q query
	vals := r.URL.Query()
	var err error
	parseT := func(key string) (time.Time, bool, error) {
		s := vals.Get(key)
		if s == "" {
			return time.Time{}, false, nil
		}
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return time.Time{}, false, fmt.Errorf("invalid %s: %v", key, err)
		}
		return t, true, nil
	}
	if q.from, q.haveFrom, err = parseT("from"); err != nil {
		return q, err
	}
	if q.to, q.haveTo, err = parseT("to"); err != nil {
		return q, err
	}
	parseF := func(key string) (float64, bool, error) {
		s := vals.Get(key)
		if s == "" {
			return 0, false, nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, false, fmt.Errorf("invalid %s: %v", key, err)
		}
		return f, true, nil
	}
	if q.minDev, q.haveMinDev, err = parseF("min_deviation"); err != nil {
		return q, err
	}
	if q.minRho, q.haveMinRho, err = parseF("max_rho"); err != nil {
		return q, err
	}
	if q.minMag, q.haveMinMag, err = parseF("min_magnitude"); err != nil {
		return q, err
	}
	q.link = vals.Get("link")
	q.router = vals.Get("router")
	q.dst = vals.Get("dst")
	q.asn = vals.Get("asn")
	q.typ = vals.Get("type")
	if s := vals.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return q, fmt.Errorf("invalid limit %q", s)
		}
		q.paged, q.limit = true, n
	}
	if s := vals.Get("cursor"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return q, fmt.Errorf("invalid cursor %q", s)
		}
		q.paged, q.cursor = true, n
	}
	if q.paged && q.limit == 0 {
		q.limit = 1000
	}
	return q, nil
}

// binMatch applies the shared [from, to) time filter.
func (q query) binMatch(bin time.Time) bool {
	if q.haveFrom && bin.Before(q.from) {
		return false
	}
	if q.haveTo && !bin.Before(q.to) {
		return false
	}
	return true
}

// page is the envelope of a paginated response. NextCursor is the index to
// resume from; it is omitted on the final page. Cursors stay valid across
// snapshots because the underlying slices are append-only.
type page[T any] struct {
	Items      []T    `json:"items"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// filterPage scans all[cursor:] for matches. Unpaged: returns every match.
// Paged: returns up to limit matches plus the cursor of the next match.
func filterPage[T any](all []T, match func(T) bool, q query) page[T] {
	out := page[T]{Items: []T{}}
	i := q.cursor
	if !q.paged {
		i = 0
	}
	for ; i < len(all); i++ {
		if !match(all[i]) {
			continue
		}
		if q.paged && len(out.Items) == q.limit {
			out.NextCursor = strconv.Itoa(i)
			return out
		}
		out.Items = append(out.Items, all[i])
	}
	return out
}

// serveList is the shared alarm/event endpoint body: pre-encoded fast path
// for the plain request, filter/paginate otherwise. The plain payload is a
// bare array (the legacy wire shape, always [] instead of null when empty);
// paged requests get the {items, next_cursor} envelope.
func serveList[T any](s *Server, w http.ResponseWriter, r *http.Request, snap *Snapshot,
	cache *payloadCache, all []T, match func(query, T) bool) {
	q, err := parseQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !q.anyFilter() && !q.paged {
		s.serveCached(w, r, snap, cache, func() any {
			if all == nil {
				return []T{}
			}
			return all
		})
		return
	}
	pg := filterPage(all, func(v T) bool { return match(q, v) }, q)
	if q.paged {
		s.writeJSON(w, pg)
		return
	}
	s.writeJSON(w, pg.Items)
}

func (s *Server) handleDelayAlarms(w http.ResponseWriter, r *http.Request) {
	snap := s.src.Snapshot()
	serveList(s, w, r, snap, &snap.encDelay, snap.DelayAlarms, func(q query, a DelayAlarm) bool {
		if !q.binMatch(a.Bin) || (q.link != "" && a.Link != q.link) {
			return false
		}
		return !q.haveMinDev || a.Deviation >= q.minDev
	})
}

func (s *Server) handleFwdAlarms(w http.ResponseWriter, r *http.Request) {
	snap := s.src.Snapshot()
	serveList(s, w, r, snap, &snap.encFwd, snap.FwdAlarms, func(q query, a FwdAlarm) bool {
		if !q.binMatch(a.Bin) || (q.router != "" && a.Router != q.router) || (q.dst != "" && a.Dst != q.dst) {
			return false
		}
		// ρ sits below τ < 0 when anomalous; "at most" is the natural knob.
		return !q.haveMinRho || a.Rho <= q.minRho
	})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	snap := s.src.Snapshot()
	serveList(s, w, r, snap, &snap.encEvents, snap.Events, func(q query, e Event) bool {
		if !q.binMatch(e.Bin) || (q.asn != "" && e.ASN != q.asn) || (q.typ != "" && e.Type != q.typ) {
			return false
		}
		if !q.haveMinMag {
			return true
		}
		m := e.Magnitude
		if m < 0 {
			m = -m
		}
		return m >= q.minMag
	})
}

// statusJSON is the /api/status payload. Done means "finished
// successfully"; a failed run reports done=false, failed=true and the
// error, so a monitoring client can no longer mistake a crashed ingest for
// a completed analysis.
type statusJSON struct {
	Case        string     `json:"case"`
	Description string     `json:"description"`
	Start       time.Time  `json:"start"`
	End         time.Time  `json:"end"`
	Results     int        `json:"results"`
	Done        bool       `json:"done"`
	Failed      bool       `json:"failed"`
	Err         string     `json:"error,omitempty"`
	LastBin     time.Time  `json:"last_bin,omitzero"`
	Seq         uint64     `json:"snapshot_seq"`
	DelayAlarms int        `json:"delayAlarms"`
	FwdAlarms   int        `json:"fwdAlarms"`
	Events      int        `json:"events"`
	Identities  Identities `json:"identities"`
}

func (s *Server) statusOf(snap *Snapshot) statusJSON {
	return statusJSON{
		Case:        snap.Meta.Case,
		Description: snap.Meta.Description,
		Start:       snap.Meta.Start,
		End:         snap.Meta.End,
		Results:     snap.Results,
		Done:        snap.Done,
		Failed:      snap.Failed,
		Err:         snap.Err,
		LastBin:     snap.LastBin,
		Seq:         snap.Seq,
		DelayAlarms: len(snap.DelayAlarms),
		FwdAlarms:   len(snap.FwdAlarms),
		Events:      len(snap.Events),
		Identities:  snap.Identities,
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap := s.src.Snapshot()
	if snap.Complete() {
		// Terminal state: immutable, so the bytes-derived ETag applies.
		s.serveCached(w, r, snap, &snap.encStatus, func() any { return s.statusOf(snap) })
		return
	}
	st := s.statusOf(snap)
	if live := s.src.Results(); live > st.Results {
		st.Results = live
	}
	// Mid-run the payload is (seq, live results); polling between
	// publications revalidates to 304 until either moves.
	etag := etagFor(snap, fmt.Sprintf("status|%d", st.Results))
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" && match == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.writeJSON(w, st)
}

// magnitudeJSON always carries both families; a quiet AS gets two empty
// arrays, never a bare {}.
type magnitudeJSON struct {
	Delay      []Point `json:"delay"`
	Forwarding []Point `json:"forwarding"`
}

func (s *Server) handleMagnitude(w http.ResponseWriter, r *http.Request) {
	asn, err := strconv.ParseUint(r.URL.Query().Get("asn"), 10, 32)
	if err != nil {
		http.Error(w, "missing or invalid asn parameter", http.StatusBadRequest)
		return
	}
	q, err := parseQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap := s.src.Snapshot()
	from, to := snap.Meta.Start, snap.Meta.End
	if q.haveFrom {
		from = q.from
	}
	if q.haveTo {
		to = q.to
	}
	var resp magnitudeJSON
	resp.Delay, resp.Forwarding = snap.Magnitude(ipmap.ASN(asn), from, to)
	// (seq, query) identifies the bytes for any snapshot, complete or
	// mid-run.
	w.Header().Set("ETag", etagFor(snap, r.URL.RawQuery))
	if match := r.Header.Get("If-None-Match"); match != "" && match == w.Header().Get("ETag") {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.writeJSON(w, resp)
}

// handleBins serves the segment store's committed-bin index, or — with
// ?bin=RFC3339 — the full decoded contribution of one committed bin. It
// reads the durable segments, not the snapshot, so it answers for any
// closed bin even after the in-memory history was evicted.
func (s *Server) handleBins(w http.ResponseWriter, r *http.Request) {
	if raw := r.URL.Query().Get("bin"); raw != "" {
		t, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			http.Error(w, fmt.Sprintf("invalid bin: %v", err), http.StatusBadRequest)
			return
		}
		pl, found, err := s.src.StoreBin(t)
		if err != nil {
			s.opts.Logf("serve: reading segment: %v", err)
			http.Error(w, "segment read failed", http.StatusInternalServerError)
			return
		}
		if !found {
			if !s.src.HasStore() {
				http.Error(w, "no segment store attached", http.StatusNotFound)
			} else {
				http.Error(w, "bin not committed", http.StatusNotFound)
			}
			return
		}
		s.writeJSON(w, pl)
		return
	}
	bins, ok := s.src.StoreBins()
	if !ok {
		http.Error(w, "no segment store attached", http.StatusNotFound)
		return
	}
	if bins == nil {
		bins = []BinSummary{}
	}
	s.writeJSON(w, bins)
}

// etagFor derives a strong ETag for parameterized reads: history is
// append-only — one bin per seq, closed bins immutable — so (seq, query)
// identifies the bytes on the writer, on every follower, and across a
// store-backed writer restart.
func etagFor(snap *Snapshot, rawQuery string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", snap.Seq, rawQuery)
	return fmt.Sprintf("\"%x\"", h.Sum64())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	snap := s.src.Snapshot()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "Internet Health Report — %s\n%s\n\n", snap.Meta.Case, snap.Meta.Description)
	state := "running"
	switch {
	case snap.Done:
		state = "done"
	case snap.Failed:
		state = "FAILED: " + snap.Err
	}
	fmt.Fprintf(w, "results processed: %d (%s)\n", s.src.Results(), state)
	fmt.Fprintf(w, "delay alarms: %d, forwarding alarms: %d, events: %d\n\n",
		len(snap.DelayAlarms), len(snap.FwdAlarms), len(snap.Events))
	fmt.Fprintln(w, "API: /api/status /api/alarms/delay /api/alarms/forwarding /api/events /api/magnitude?asn=N /api/stream")
}
