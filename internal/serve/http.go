package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"pinpoint/internal/ipmap"
)

// The HTTP server's timeouts. There is no WriteTimeout: /api/stream is
// long-lived by design. Slow plain readers are bounded by the snapshot model
// instead — they can only stall themselves.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 5 * time.Second // in-flight requests' drain time at shutdown
)

// Options configures the HTTP server. Zero values get production defaults.
type Options struct {
	Addr string // listen address; default ":8080"

	// Logf receives serving diagnostics (encode/write failures, lifecycle).
	// Default log.Printf.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = ":8080"
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Source is what the HTTP API serves from: a snapshot producer with a
// replication feed. Publisher (the writer role) and Follower (the replica
// role) both implement it, so one Server works unchanged on either side of
// the split. Every read, history included, is answered from a snapshot.
type Source interface {
	// Snapshot returns the current immutable snapshot; never nil.
	Snapshot() *Snapshot
	// Results returns the live ingested-result count (snapshot count plus
	// anything observed since the last publication).
	Results() int64
	// Subscribe registers a feed subscriber.
	Subscribe() *Subscription
	// CloseSubscribers terminates every feed stream (server shutdown).
	CloseSubscribers()
}

// Server is the lock-free HTTP API over a Source's snapshots.
//
//	GET /api/status            analysis progress and run outcome
//	GET /api/alarms/delay      delay-change alarms (filter + paginate)
//	GET /api/alarms/forwarding forwarding anomalies (filter + paginate)
//	GET /api/events            major per-AS events (filter + paginate)
//	GET /api/magnitude?asn=N   hourly magnitude series for one AS
//	GET /api/bins[?bin=T]      closed-bin index / one bin's contribution
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
// in-flight requests get shutdownGrace to finish, SSE streams are released
// by closing their subscriptions. A closed listener after cancellation is
// reported as nil.
func (s *Server) ListenAndServe(ctx context.Context) error {
	srv := &http.Server{
		Addr:              s.opts.Addr,
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.src.CloseSubscribers() // unblock SSE handlers so Shutdown can drain
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(grace); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// payloadCache renders the terminal /api/status payload once: a complete
// snapshot never changes again, so its bytes and the ETag derived from them
// are served as they are from then on.
type payloadCache struct {
	once sync.Once
	data []byte
	etag string
	err  error
}

func (c *payloadCache) get(build func() any) ([]byte, string, error) {
	c.once.Do(func() {
		if c.data, c.err = encodePayload(build()); c.err == nil {
			c.etag = quoteETag(fnv1a(fnvOffset, c.data))
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
		s.encodeFailed(w, err)
		return
	}
	s.writeBody(w, b)
}

func (s *Server) encodeFailed(w http.ResponseWriter, err error) {
	s.opts.Logf("serve: encoding response: %v", err)
	http.Error(w, "response encoding failed", http.StatusInternalServerError)
}

// jsonContentType is the one Content-Type value of every JSON response,
// shared (never appended to: len == cap) to spare a slice per response.
var jsonContentType = []string{"application/json"}

// writeBody writes a fully assembled JSON body as one response of known
// length.
func (s *Server) writeBody(w http.ResponseWriter, b []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(b)))
	if _, err := w.Write(b); err != nil {
		s.opts.Logf("serve: writing response: %v", err)
	}
}

// notModified sets the response's ETag and, when the request's
// If-None-Match names it, answers 304 and reports true. ETags identify
// immutable bytes — a snapshot's, mid-run or complete — so they are stable
// across no-op polls and change exactly when a publication changes the
// payload.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	if !etagMatch(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	w.WriteHeader(http.StatusNotModified)
	return true
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
// aside) — unfiltered, unpaged requests ride the encoded stream.
func (q *query) anyFilter() bool {
	return q.haveFrom || q.haveTo || q.link != "" || q.router != "" || q.dst != "" ||
		q.asn != "" || q.typ != "" || q.haveMinDev || q.haveMinRho || q.haveMinMag
}

// queryGet is url.Values.Get without building the map: the value of the
// first well-formed pair of the raw query named key, unescaped, or "".
func queryGet(raw, key string) string {
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if strings.Contains(kv, ";") {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// parseQuery reads the filter and pagination parameters off the request's
// raw query, once per request. The string-valued parameters are filled in
// even when a later one is rejected.
func parseQuery(r *http.Request) (query, error) {
	var q query
	raw := r.URL.RawQuery
	if raw == "" {
		return q, nil
	}
	q.link = queryGet(raw, "link")
	q.router = queryGet(raw, "router")
	q.dst = queryGet(raw, "dst")
	q.asn = queryGet(raw, "asn")
	q.typ = queryGet(raw, "type")
	var err error
	parseT := func(key string) (time.Time, bool, error) {
		s := queryGet(raw, key)
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
		s := queryGet(raw, key)
		if s == "" {
			return 0, false, nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, false, fmt.Errorf("invalid %s: %v", key, err)
		}
		if math.IsNaN(f) {
			// Every comparison with NaN is false: the filter would drop
			// every row and answer an empty 200.
			return 0, false, fmt.Errorf("invalid %s: NaN", key)
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
	if s := queryGet(raw, "limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return q, fmt.Errorf("invalid limit %q", s)
		}
		q.paged, q.limit = true, n
	}
	if s := queryGet(raw, "cursor"); s != "" {
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
func (q *query) binMatch(bin time.Time) bool {
	if q.haveFrom && bin.Before(q.from) {
		return false
	}
	if q.haveTo && !bin.Before(q.to) {
		return false
	}
	return true
}

// finish answers a request whose body was assembled in a pooled buffer —
// the body, or a clean 500 when a row failed to encode (nothing has been
// written yet) — and recycles the buffer.
func (s *Server) finish(w http.ResponseWriter, bp *[]byte, b []byte, err error) {
	if err != nil {
		s.encodeFailed(w, err)
	} else {
		s.writeBody(w, b)
	}
	*bp = b[:0]
	bodyPool.Put(bp)
}

// serveList is the shared alarm/event endpoint body. The plain request is
// the snapshot's prefix of the list's encoded stream between brackets — a
// bare array, the legacy wire shape, [] when empty — under an ETag over
// exactly those bytes. Filtered and paged requests walk the rows through the
// same encoder instead.
func serveList[T any](s *Server, w http.ResponseWriter, r *http.Request, st *stream, all []T,
	enc rowEncoder[T], match func(*query, *T) bool) {
	q, err := parseQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if q.anyFilter() || q.paged {
		bp := bodyPool.Get().(*[]byte)
		b, err := appendMatches((*bp)[:0], all, q, enc, match)
		s.finish(w, bp, b, err)
		return
	}
	buf, marks, err := render(st, len(all), listIndent, func(b []byte, ind string, i int) ([]byte, error) {
		return enc(b, ind, &all[i])
	})
	if err != nil {
		s.encodeFailed(w, err)
		return
	}
	if notModified(w, r, listETag(marks)) {
		return
	}
	bp := bodyPool.Get().(*[]byte)
	b := appendArray((*bp)[:0], span(buf, marks, 0, len(marks)), "")
	s.finish(w, bp, append(b, '\n'), nil)
}

// appendMatches encodes the rows of all that match: every one, as a bare
// array, when unpaged; when paged, up to q.limit of all[q.cursor:] in the
// {items, next_cursor} envelope. next_cursor is the index of the next match
// and is omitted on the final page; cursors stay valid across snapshots
// because the lists are append-only.
func appendMatches[T any](b []byte, all []T, q query, enc rowEncoder[T], match func(*query, *T) bool) ([]byte, error) {
	ind, arrayInd, i := listIndent, "", 0
	if q.paged {
		ind, arrayInd, i = nestedIndent, listIndent, q.cursor
		b = append(b, "{\n  \"items\": "...)
	}
	b = append(b, '[')
	next := -1
	for n := 0; i < len(all); i++ {
		if !match(&q, &all[i]) {
			continue
		}
		if q.paged && n == q.limit {
			next = i
			break
		}
		if n > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = enc(b, ind, &all[i]); err != nil {
			return b, err
		}
		n++
	}
	if b[len(b)-1] != '[' {
		b = append(append(b, '\n'), arrayInd...)
	}
	b = append(b, ']')
	if next >= 0 {
		b = append(b, ",\n  \"next_cursor\": \""...)
		b = append(strconv.AppendInt(b, int64(next), 10), '"')
	}
	if q.paged {
		b = append(b, "\n}"...)
	}
	return append(b, '\n'), nil
}

func (s *Server) handleDelayAlarms(w http.ResponseWriter, r *http.Request) {
	snap := s.src.Snapshot()
	serveList(s, w, r, &snap.enc.delay, snap.DelayAlarms, appendDelayAlarmJSON, matchDelayAlarm)
}

func (s *Server) handleFwdAlarms(w http.ResponseWriter, r *http.Request) {
	snap := s.src.Snapshot()
	serveList(s, w, r, &snap.enc.fwd, snap.FwdAlarms, appendFwdAlarmJSON, matchFwdAlarm)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	snap := s.src.Snapshot()
	serveList(s, w, r, &snap.enc.events, snap.Events, appendEventJSON, matchEvent)
}

func matchDelayAlarm(q *query, a *DelayAlarm) bool {
	if !q.binMatch(a.Bin) || (q.link != "" && a.Link != q.link) {
		return false
	}
	return !q.haveMinDev || a.Deviation >= q.minDev
}

func matchFwdAlarm(q *query, a *FwdAlarm) bool {
	if !q.binMatch(a.Bin) || (q.router != "" && a.Router != q.router) || (q.dst != "" && a.Dst != q.dst) {
		return false
	}
	// ρ sits below τ < 0 when anomalous; "at most" is the natural knob.
	return !q.haveMinRho || a.Rho <= q.minRho
}

func matchEvent(q *query, e *Event) bool {
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
	Results     int64      `json:"results"`
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
		b, etag, err := snap.encStatus.get(func() any { return s.statusOf(snap) })
		if err != nil {
			s.encodeFailed(w, err)
		} else if !notModified(w, r, etag) {
			s.writeBody(w, b)
		}
		return
	}
	st := s.statusOf(snap)
	if live := s.src.Results(); live > st.Results {
		st.Results = live
	}
	// Mid-run the payload is (seq, live results); polling between
	// publications revalidates to 304 until either moves.
	if !notModified(w, r, etagFor(snap.Seq, "status|"+strconv.FormatInt(st.Results, 10))) {
		s.writeJSON(w, st)
	}
}

// handleMagnitude frames the two families of one AS — both keys always, a
// quiet AS gets two empty arrays, never a bare {} — around the requested
// row range of their encoded streams.
func (s *Server) handleMagnitude(w http.ResponseWriter, r *http.Request) {
	q, qerr := parseQuery(r)
	asn, err := strconv.ParseUint(q.asn, 10, 32)
	if err != nil {
		http.Error(w, "missing or invalid asn parameter", http.StatusBadRequest)
		return
	}
	if qerr != nil {
		http.Error(w, qerr.Error(), http.StatusBadRequest)
		return
	}
	snap := s.src.Snapshot()
	// (seq, query) identifies the bytes for any snapshot, complete or
	// mid-run, so revalidation is settled before any row is looked at.
	if notModified(w, r, etagFor(snap.Seq, r.URL.RawQuery)) {
		return
	}
	from, to := snap.Meta.Start, snap.Meta.End
	if q.haveFrom {
		from = q.from
	}
	if q.haveTo {
		to = q.to
	}
	i, j := snap.magRange(from, to)
	d, derr := snap.encodedMag(magKey{ipmap.ASN(asn), false}, i, j)
	f, ferr := snap.encodedMag(magKey{ipmap.ASN(asn), true}, i, j)
	if err := cmp.Or(derr, ferr); err != nil {
		s.encodeFailed(w, err)
		return
	}
	bp := bodyPool.Get().(*[]byte)
	b := appendArray(append((*bp)[:0], "{\n  \"delay\": "...), d, listIndent)
	b = appendArray(append(b, ",\n  \"forwarding\": "...), f, listIndent)
	s.finish(w, bp, append(b, "\n}\n"...), nil)
}

// handleBins serves the closed-bin index or, with ?bin=RFC3339, the full
// contribution of one closed bin, both cut from the snapshot's marks: every
// role, with or without a store, answers them alike.
func (s *Server) handleBins(w http.ResponseWriter, r *http.Request) {
	snap := s.src.Snapshot()
	raw := r.URL.Query().Get("bin")
	if raw == "" {
		s.writeJSON(w, snap.bins())
		return
	}
	t, err := time.Parse(time.RFC3339, raw)
	if err != nil {
		http.Error(w, fmt.Sprintf("invalid bin: %v", err), http.StatusBadRequest)
		return
	}
	pl, ok := snap.binPayload(t)
	if !ok {
		http.Error(w, "bin not closed", http.StatusNotFound)
		return
	}
	s.writeJSON(w, pl)
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
