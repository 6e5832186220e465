package serve

// The versioned replication feed: the wire contract shared by the three
// snapshot producers — the local publisher, the segment-store boot path,
// and the remote follower.
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
// store-backed writer restarts: the same seq always means the same bytes.
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
// since the previous one, stamped with the snapshot seq. Alarm lists are
// partitioned by closing bin (exactly like the segment store's records), so
// a delta replayed live and a delta synthesized from a committed segment
// carry the same rows. A Full delta replaces the mirror's entire state
// instead of appending.
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

// magRows converts an events.CloseDelta point list to feed rows, preserving
// the aggregator's deterministic (bin, AS) append order.
func magRows(pts []events.ASPoint) []MagRow {
	if len(pts) == 0 {
		return nil
	}
	rows := make([]MagRow, len(pts))
	for i, pt := range pts {
		rows[i] = MagRow{ASN: uint32(pt.ASN), T: pt.T, V: pt.V}
	}
	return rows
}

// magRowsFromSeries filters a committed segment's series rows down to one
// family, preserving stored order (which is the close's append order).
func magRowsFromSeries(rows []segstore.SeriesRow, family uint8) []MagRow {
	var out []MagRow
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

// appendDelayAlarms converts committed segment rows back to wire form. The
// strings were stored exactly as published, so the round trip is verbatim.
func appendDelayAlarms(dst []DelayAlarm, rows []segstore.DelayRow) []DelayAlarm {
	for _, r := range rows {
		dst = append(dst, DelayAlarm{
			Bin: r.Bin, Link: r.Link,
			MedianMS: r.MedianMS, RefMS: r.RefMS,
			ShiftMS: r.ShiftMS, Deviation: r.Deviation,
			Probes: int(r.Probes), ASes: int(r.ASes),
		})
	}
	return dst
}

func appendFwdAlarms(dst []FwdAlarm, rows []segstore.FwdRow) []FwdAlarm {
	for _, r := range rows {
		dst = append(dst, FwdAlarm{
			Bin: r.Bin, Router: r.Router, Dst: r.Dst,
			Rho: r.Rho, TopHop: r.TopHop, TopR: r.TopR,
		})
	}
	return dst
}

func appendWireEvents(dst []Event, rows []segstore.EventRow) []Event {
	for _, r := range rows {
		dst = append(dst, Event{
			ASN: ipmap.ASN(r.ASN).String(), Bin: r.Bin,
			Type: events.Type(r.Type).String(), Magnitude: r.Magnitude,
		})
	}
	return dst
}

// deltaFromRecord synthesizes the feed delta of one committed bin: record i
// of the store is exactly what delta seq i+2 appended (the store partitions
// alarms by closing bin, and live deltas use the same rule). Identities is
// not persisted, so synthesized deltas leave it nil.
func deltaFromRecord(rec *segstore.BinRecord, seq uint64, binSize time.Duration) Delta {
	return Delta{
		Seq: seq, Bin: rec.Bin, Results: int(rec.Results),
		DelayAlarms: appendDelayAlarms(nil, rec.Delay),
		FwdAlarms:   appendFwdAlarms(nil, rec.Fwd),
		Events:      appendWireEvents(nil, rec.Events),
		MagStart:    rec.FirstBin,
		MagThrough:  rec.Bin.Add(binSize),
		DelayMag:    magRowsFromSeries(rec.Mag, segstore.FamilyDelay),
		FwdMag:      magRowsFromSeries(rec.Mag, segstore.FamilyFwd),
	}
}
