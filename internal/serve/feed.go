package serve

// The versioned replication feed: the wire contract between a role that
// publishes snapshots and the followers behind it. Every delta that is not
// a whole-state resync is deltaFromRecord of one bin's segstore.BinRecord —
// on the writer as the bin closes, on any role when catch-up reads the
// record back from a store.
//
// The feed is the SSE stream of /api/stream: one `hello` event opens every
// connection (protocol version, run metadata, current snapshot position),
// then one `delta` event per snapshot publication. There are exactly two
// delta kinds: an append (everything one publication added) and Full (the
// entire current state, correct from any starting point). A client that
// already holds state reconnects with ?since=SEQ and the server replays
// the missing deltas (see feedLog.CatchUp) or, when they are not all
// available, sends one Full delta. A subscriber dropped for falling behind
// receives a terminal `gap` event so it can distinguish "resync needed"
// from "run complete".
//
// Delta sequence numbers are the snapshot Seq: the initial publication is
// seq 1 and the close of the k-th analysis bin publishes seq k+2, so
// committed store record i always maps to delta seq i+2 regardless of
// restarts. Closed bins are immutable (events.Aggregator rejects late
// mutations), so history is append-only across publications and across
// store-backed writer restarts, and a seq's delta is the same bytes live or
// read back from its segment — the identity counters aside, which segments
// do not persist.
//
// Byte-identity across the feed rests on JSON float round-tripping: Go
// marshals float64 with the shortest representation that parses back to
// the same bits, so a decoded mirror reproduces the writer's payload bytes
// exactly.

import (
	"encoding/json"
	"slices"
	"time"

	"pinpoint/internal/events"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/segstore"
	"pinpoint/internal/timeseries"
)

// FeedProto is the replication feed protocol version carried by every
// hello event. A follower refuses to track a writer speaking a different
// version.
const FeedProto = 3

// defaultFeedWindow is how many recent deltas the in-memory catch-up ring
// retains.
const defaultFeedWindow = 256

// MagRow is one per-AS magnitude point on the feed. Rows within one delta
// are ordered (bin, AS) for the close they extend — the same deterministic
// order the incremental aggregator appends in — so a mirror can append them
// to its per-AS series verbatim.
type MagRow struct {
	ASN uint32    `json:"asn"`
	T   time.Time `json:"t"`
	V   float64   `json:"v"`
}

// Delta is one feed increment: everything one snapshot publication appended
// since the previous one — one bin's record — stamped with the snapshot seq.
// A Full delta replaces the mirror's entire state instead of appending.
type Delta struct {
	Seq     uint64    `json:"seq"`
	Bin     time.Time `json:"bin,omitzero"`
	Results int       `json:"results"`

	DelayAlarms []DelayAlarm `json:"delay_alarms"`
	FwdAlarms   []FwdAlarm   `json:"fwd_alarms"`
	Events      []Event      `json:"events"`

	// Magnitude region extension: the points this close appended, with the
	// region bounds after the close. Empty when no bin closed.
	MagStart   time.Time `json:"mag_start,omitzero"`
	MagThrough time.Time `json:"mag_through,omitzero"`
	DelayMag   []MagRow  `json:"delay_mag,omitempty"`
	FwdMag     []MagRow  `json:"fwd_mag,omitempty"`

	// Identities travels only on live deltas (segments do not persist it);
	// nil means "keep what you have".
	Identities *Identities `json:"identities,omitempty"`

	// Full marks a whole-state resync: the alarm/event/magnitude lists are
	// the complete current state, not an increment.
	Full bool `json:"full,omitempty"`

	Done   bool   `json:"done"`
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"error,omitempty"`
}

// helloJSON is the first SSE event: the subscriber's synchronization point.
// Counts double as cursors — a client that fetched the plain endpoints with
// cursor pagination can verify it is exactly caught up before applying
// deltas — and the metadata block lets a follower adopt the writer's run
// identity and validate the protocol version.
type helloJSON struct {
	Proto       int       `json:"proto"`
	Seq         uint64    `json:"seq"`
	Bin         time.Time `json:"bin,omitzero"`
	Results     int       `json:"results"`
	DelayAlarms int       `json:"delay_alarms"`
	FwdAlarms   int       `json:"fwd_alarms"`
	Events      int       `json:"events"`
	Done        bool      `json:"done"`
	Failed      bool      `json:"failed,omitempty"`
	Err         string    `json:"error,omitempty"`

	Case        string        `json:"case"`
	Description string        `json:"description"`
	Start       time.Time     `json:"start"`
	End         time.Time     `json:"end"`
	BinNS       time.Duration `json:"bin_ns"`
}

// gapJSON is the terminal event of a subscriber dropped for falling behind:
// the last delta seq that was enqueued for it, so the client knows where to
// resume with ?since=.
type gapJSON struct {
	LastSeq uint64 `json:"last_seq"`
}

// helloFor builds the hello event for the current snapshot.
func helloFor(snap *Snapshot) helloJSON {
	return helloJSON{
		Proto: FeedProto,
		Seq:   snap.Seq, Bin: snap.LastBin, Results: snap.Results,
		DelayAlarms: len(snap.DelayAlarms), FwdAlarms: len(snap.FwdAlarms),
		Events: len(snap.Events),
		Done:   snap.Done, Failed: snap.Failed, Err: snap.Err,
		Case: snap.Meta.Case, Description: snap.Meta.Description,
		Start: snap.Meta.Start, End: snap.Meta.End, BinNS: snap.BinSize,
	}
}

// decodeDelta parses one delta event payload. It is the follower's half of
// the codec and the subject of FuzzFeedDecode: it must never panic, and
// decode∘encode must be the identity on anything it accepts.
func decodeDelta(b []byte) (Delta, error) {
	var d Delta
	if err := json.Unmarshal(b, &d); err != nil {
		return Delta{}, err
	}
	return d, nil
}

// decodeHello parses the hello event payload.
func decodeHello(b []byte) (helloJSON, error) {
	var h helloJSON
	if err := json.Unmarshal(b, &h); err != nil {
		return helloJSON{}, err
	}
	return h, nil
}

// seriesMagRows filters a record's magnitude rows down to one family,
// preserving stored order (which is the close's append order).
func seriesMagRows(rows []segstore.SeriesRow, family uint8) []MagRow {
	n := 0
	for _, r := range rows {
		if r.Family == family {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]MagRow, 0, n) // exact: the feed ring retains it
	for _, r := range rows {
		if r.Family == family {
			out = append(out, MagRow{ASN: r.ASN, T: r.Bin, V: r.V})
		}
	}
	return out
}

// sortedMagRows flattens a snapshot's magnitude map into rows ordered
// (AS, bin) — the deterministic full-state form used by Full deltas.
func sortedMagRows(m map[ipmap.ASN][]timeseries.Point) []MagRow {
	if len(m) == 0 {
		return nil
	}
	asns := make([]ipmap.ASN, 0, len(m))
	for asn := range m {
		asns = append(asns, asn)
	}
	slices.Sort(asns)
	var out []MagRow
	for _, asn := range asns {
		for _, pt := range m[asn] {
			out = append(out, MagRow{ASN: uint32(asn), T: pt.T, V: pt.V})
		}
	}
	return out
}

// fullDelta packages the entire current snapshot as one Full delta: the
// catch-up source of last resort, correct from any starting state.
func fullDelta(snap *Snapshot) Delta {
	ids := snap.Identities
	return Delta{
		Seq: snap.Seq, Bin: snap.LastBin, Results: snap.Results,
		DelayAlarms: snap.DelayAlarms, FwdAlarms: snap.FwdAlarms, Events: snap.Events,
		MagStart: snap.MagStart, MagThrough: snap.MagEnd,
		DelayMag: sortedMagRows(snap.delayMag), FwdMag: sortedMagRows(snap.fwdMag),
		Identities: &ids, Full: true,
		Done: snap.Done, Failed: snap.Failed, Err: snap.Err,
	}
}

// deltaFromRecord is the feed delta of one bin's record: the only place an
// append delta is built. The rows are copied — records are reused scratch,
// deltas are retained by the ring and handed to subscribers — and the event
// rows take their wire strings here. A record that closed no
// bin (the seq-1 initial publication, a failed run's terminal one) extends
// no magnitude region. Identities is not persisted, so it is left nil.
func deltaFromRecord(rec *segstore.BinRecord, seq uint64, binSize time.Duration) Delta {
	d := Delta{
		Seq: seq, Bin: rec.Bin, Results: int(rec.Results),
		DelayAlarms: append([]DelayAlarm{}, rec.Delay...),
		FwdAlarms:   append([]FwdAlarm{}, rec.Fwd...),
		Events:      make([]Event, 0, len(rec.Events)),
		DelayMag:    seriesMagRows(rec.Mag, segstore.FamilyDelay),
		FwdMag:      seriesMagRows(rec.Mag, segstore.FamilyFwd),
	}
	for _, r := range rec.Events {
		d.Events = append(d.Events, Event{
			ASN: ipmap.ASN(r.ASN).String(), Bin: r.Bin,
			Type: events.Type(r.Type).String(), Magnitude: r.Magnitude,
		})
	}
	if !rec.Bin.IsZero() {
		d.MagStart, d.MagThrough = rec.FirstBin, rec.Bin.Add(binSize)
	}
	return d
}
