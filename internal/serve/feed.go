package serve

// The versioned replication feed: the wire contract between a role that
// publishes snapshots and the followers behind it, and the one place a
// role's history is read back.
//
// The feed is the SSE stream of /api/stream: one `hello` event opens every
// connection (protocol version, run metadata, current snapshot position),
// then one `delta` event per snapshot publication. There are exactly two
// delta kinds: an append (everything one publication added) and Full (the
// entire current state, correct from any starting point). A live append is
// deltaFromRecord of one bin's segstore.BinRecord. A client that already
// holds state reconnects with ?since=SEQ and is sent the missing seqs, each
// cut from the current snapshot between two of its mirror's marks — or one
// Full delta, also a cut, when since has no mark (Snapshot.catchUp). A
// subscriber dropped for falling behind receives a terminal `gap` event so
// it can distinguish "resync needed" from "run complete". /api/bins reads
// the same marks.
//
// Delta sequence numbers are the snapshot Seq: the initial publication is
// seq 1 and the close of the k-th analysis bin publishes seq k+2, so
// committed store record i always maps to delta seq i+2 regardless of
// restarts. Closed bins are immutable (events.Aggregator rejects late
// mutations), so history is append-only across publications and across
// store-backed writer restarts, and a seq's delta is the same bytes live,
// cut from any role's snapshot, or rebuilt from its segment at a writer's
// boot — the identity counters aside, which only the last delta of a
// catch-up carries.
//
// Byte-identity across the feed rests on JSON float round-tripping: Go
// marshals float64 with the shortest representation that parses back to
// the same bits, so a decoded mirror reproduces the writer's payload bytes
// exactly.

import (
	"cmp"
	"encoding/json"
	"iter"
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
	Results int64     `json:"results"`

	DelayAlarms []DelayAlarm `json:"delay_alarms"`
	FwdAlarms   []FwdAlarm   `json:"fwd_alarms"`
	Events      []Event      `json:"events"`

	// Magnitude region extension: the points this close appended, with the
	// region bounds after the close. Empty when no bin closed.
	MagStart   time.Time `json:"mag_start,omitzero"`
	MagThrough time.Time `json:"mag_through,omitzero"`
	DelayMag   []MagRow  `json:"delay_mag,omitempty"`
	FwdMag     []MagRow  `json:"fwd_mag,omitempty"`

	// Identities travels on live deltas and on the last delta of a
	// catch-up; nil means "keep what you have".
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
	Results     int64     `json:"results"`
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
	var out []MagRow
	for _, r := range rows {
		if r.Family == family {
			out = append(out, MagRow{ASN: r.ASN, T: r.Bin, V: r.V})
		}
	}
	return out
}

// deltaFromRecord is the feed delta of one bin's record: the only place a
// live append delta is built. The rows are copied — records are reused
// scratch, deltas are handed to subscribers — and the event rows take their
// wire strings here. A record that closed no bin (the seq-1 initial
// publication, a failed run's terminal one) extends no magnitude region.
// Identities is not persisted, so it is left nil.
func deltaFromRecord(rec *segstore.BinRecord, seq uint64, binSize time.Duration) Delta {
	d := Delta{
		Seq: seq, Bin: rec.Bin, Results: rec.Results,
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

// catchUp yields what a client holding seq since needs to reach the
// snapshot: the cut of every later seq, or one Full delta — the cut from
// the empty state — when since has no mark (it predates the Full delta
// this role's marks restarted at, or the client is ahead of the snapshot,
// i.e. holds a history this role never had). The last delta carries the
// snapshot's identities and, once the run is complete, its outcome.
func (s *Snapshot) catchUp(since uint64) iter.Seq[Delta] {
	return func(yield func(Delta) bool) {
		last := func(d Delta) Delta {
			ids := s.Identities
			d.Identities = &ids
			d.Done, d.Failed, d.Err = s.Done, s.Failed, s.Err
			return d
		}
		first := s.Seq + 1 - uint64(len(s.marks)) // the seq of marks[0]
		if since < first || since > s.Seq {
			d := s.between(&noMark, &s.marks[len(s.marks)-1])
			d.Seq, d.Bin, d.Full = s.Seq, s.LastBin, true
			d.MagStart, d.MagThrough = s.MagStart, s.MagEnd
			yield(last(d))
			return
		}
		for seq := since + 1; seq <= s.Seq; seq++ {
			d := s.cut(int(seq - first))
			if seq == s.Seq {
				d = last(d)
			}
			if !yield(d) {
				return
			}
		}
	}
}

// cut is the append delta of the seq whose mark is s.marks[i] (i ≥ 1):
// byte for byte the live delta of that seq, Identities aside.
func (s *Snapshot) cut(i int) Delta {
	d := s.between(&s.marks[i-1], &s.marks[i])
	d.Seq = s.Seq - uint64(len(s.marks)-1-i)
	return d
}

// between is what the snapshot's state gained from mark p to mark c. The
// lists are subslices of the snapshot's own; only magnitude rows are built.
func (s *Snapshot) between(p, c *seqMark) Delta {
	d := Delta{
		Bin: timeOf(c.bin), Results: c.results,
		DelayAlarms: orEmpty(s.DelayAlarms[p.delay:c.delay]),
		FwdAlarms:   orEmpty(s.FwdAlarms[p.fwd:c.fwd]),
		Events:      orEmpty(s.Events[p.events:c.events]),
		DelayMag:    s.magRows(s.delayMag, 0, p, c),
		FwdMag:      s.magRows(s.fwdMag, 1, p, c),
	}
	if c.magSet {
		d.MagStart, d.MagThrough = s.MagStart, timeOf(c.magEnd)
	}
	return d
}

// orEmpty keeps an empty list encoding as [], as a live delta's does.
func orEmpty[T any](rows []T) []T {
	if rows == nil {
		return []T{}
	}
	return rows
}

// magRows are one family's magnitude rows from mark p to mark c in the
// order a close appends them: bin by bin, ASes ascending, and a new AS's
// zero backfill before its first bin, at that bin.
func (s *Snapshot) magRows(series map[ipmap.ASN][]float64, fam int, p, c *seqMark) []MagRow {
	from, to := s.regionLen(p.magEnd), s.regionLen(c.magEnd)
	if from >= to {
		return nil
	}
	type as struct {
		asn   ipmap.ASN
		fresh bool
	}
	ases := make([]as, c.ases[fam])
	for k, asn := range s.ases[fam][:c.ases[fam]] {
		ases[k] = as{asn, k >= int(p.ases[fam])}
	}
	slices.SortFunc(ases, func(a, b as) int { return cmp.Compare(a.asn, b.asn) })
	var rows []MagRow
	for i := from; i < to; i++ {
		for _, a := range ases {
			vals := series[a.asn]
			lo, hi := i, min(i+1, len(vals))
			if a.fresh && i == from {
				lo = 0
			}
			for k := min(lo, hi); k < hi; k++ {
				rows = append(rows, MagRow{ASN: uint32(a.asn), T: s.magBin(k), V: vals[k]})
			}
		}
	}
	return rows
}

// regionLen is the number of bins the magnitude region holds when it ends
// at end, a mark's Unix seconds (noTime: no region yet).
func (s *Snapshot) regionLen(end int64) int {
	if end == noTime {
		return 0
	}
	return int(timeOf(end).Sub(s.MagStart) / s.BinSize)
}

// BinSummary is one closed bin as listed by /api/bins.
type BinSummary struct {
	Bin         time.Time `json:"bin"`
	Results     int64     `json:"results"`
	DelayAlarms int       `json:"delay_alarms"`
	FwdAlarms   int       `json:"fwd_alarms"`
	Events      int       `json:"events"`
}

// BinPayload is the full time-travel view of one closed bin: exactly what
// that bin's close contributed to the read model.
type BinPayload struct {
	Bin         time.Time    `json:"bin"`
	Results     int64        `json:"results"`
	DelayAlarms []DelayAlarm `json:"delay_alarms"`
	FwdAlarms   []FwdAlarm   `json:"fwd_alarms"`
	Events      []Event      `json:"events"`
}

// bins lists the closed bins, oldest first: every mark with a predecessor
// whose seq closed a bin. (The first mark is seq 0's, or a Full delta's,
// which is no one bin's contribution.)
func (s *Snapshot) bins() []BinSummary {
	out := []BinSummary{}
	for i := 1; i < len(s.marks); i++ {
		p, c := &s.marks[i-1], &s.marks[i]
		if c.bin != noTime {
			out = append(out, BinSummary{
				Bin: timeOf(c.bin), Results: c.results,
				DelayAlarms: int(c.delay - p.delay), FwdAlarms: int(c.fwd - p.fwd), Events: int(c.events - p.events),
			})
		}
	}
	return out
}

// binPayload cuts the contribution of the closed bin containing t; false
// when bins does not list it.
func (s *Snapshot) binPayload(t time.Time) (*BinPayload, bool) {
	t = timeseries.Bin(t, s.BinSize)
	for i := 1; i < len(s.marks); i++ {
		if b := s.marks[i].bin; b != noTime && timeOf(b).Equal(t) {
			d := s.cut(i)
			return &BinPayload{
				Bin: d.Bin, Results: d.Results,
				DelayAlarms: d.DelayAlarms, FwdAlarms: d.FwdAlarms, Events: d.Events,
			}, true
		}
	}
	return nil, false
}
