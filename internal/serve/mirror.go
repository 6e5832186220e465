package serve

// mirror is the snapshot-assembly core: the pure append-only read-model
// state out of which every Snapshot is built. It advances one way only, on
// either role: apply, one feed delta at a time — the writer's own delta of
// the bin it just closed, a follower's decoded ones, and at the writer's
// boot the deltas of its segment store's committed records. The invariants
// that make lock-free publication sound live here: slices only ever grow
// (snapshots hold fixed-length prefixes), and a Full delta starts over on
// fresh storage instead of mutating what previous snapshots still reference.
//
// apply also records one mark per seq: where that seq left the append-only
// state. Marks are the only history a role keeps besides the state itself;
// feed catch-up and /api/bins cut what one seq added from a snapshot
// between two of them (feed.go).

import (
	"fmt"
	"maps"
	"math"
	"time"

	"pinpoint/internal/ipmap"
	"pinpoint/internal/segstore"
)

type mirror struct {
	meta    Meta
	binSize time.Duration

	seq     uint64
	lastBin time.Time
	results int64
	idents  Identities

	delay []DelayAlarm // append-only; snapshots hold prefixes
	fwd   []FwdAlarm
	evs   []Event

	// Magnitude region: dense per-AS magnitudes over [magStart,
	// magThrough), index i the bin magStart + i·binSize (feed rows carry
	// their bin; the region drops it). apply swaps in extended copies of
	// the maps and never mutates one that is here, so snapshots share them
	// as they are. ases lists each family's ASes (delay, forwarding) in the
	// order their first row arrived.
	delayMag, fwdMag     map[ipmap.ASN][]float64
	magStart, magThrough time.Time
	ases                 [2][]ipmap.ASN

	// marks holds one mark per seq, consecutive and ending at seq: from
	// seq 0, or from the seq of the last Full delta applied.
	marks []seqMark

	// enc holds the rows' encoded form (render.go), shared by every snapshot
	// assembled from this mirror; a Full delta starts over with the mirror.
	enc *streams

	done, failed bool
	errMsg       string
}

// seqMark is where one seq left the mirror, in 48 bytes: what that seq's
// delta said about itself — its bin, the region's end after it (both Unix
// seconds, noTime for none: bins are whole-second UTC times, as SEG1
// stores them) and its result count — and the lengths of the append-only
// lists and of each family's AS order. Every role keeps one mark per seq
// for the whole run; feed.go unpacks them where it cuts deltas and bins.
type seqMark struct {
	bin, magEnd        int64
	results            int64
	delay, fwd, events uint32
	ases               [2]uint32
	magSet             bool // the seq's delta carried the region bounds
}

// noTime is a mark's "no bin" and "no region yet": no Unix second a real
// bin can take (0 is a 1970 bin).
const noTime = math.MinInt64

// noMark is the empty state's mark: seq 0's, and the start of a Full cut.
var noMark = seqMark{bin: noTime, magEnd: noTime}

// unixOf packs a bin time into a mark; the zero time is noTime.
func unixOf(t time.Time) int64 {
	if t.IsZero() {
		return noTime
	}
	return t.Unix()
}

// timeOf unpacks a mark's time; noTime is the zero time.
func timeOf(sec int64) time.Time {
	if sec == noTime {
		return time.Time{}
	}
	return time.Unix(sec, 0).UTC()
}

// len32 is a list length as a mark stores it. A list past 2³²−1 rows
// panics here rather than wrap into a mark that cuts the wrong rows.
func len32(n int) uint32 {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("serve: a list of %d rows overflows a seq mark", n))
	}
	return uint32(n)
}

// newMirror returns the empty mirror at seq 0.
func newMirror(meta Meta, binSize time.Duration) mirror {
	return mirror{meta: meta, binSize: binSize, marks: []seqMark{noMark}}
}

// assemble builds the immutable snapshot of the mirror's current state.
func (m *mirror) assemble() *Snapshot {
	if m.enc == nil {
		m.enc = &streams{mag: make(map[magKey]*stream)}
	}
	snap := &Snapshot{
		Seq:         m.seq,
		Meta:        m.meta,
		BinSize:     m.binSize,
		LastBin:     m.lastBin,
		Results:     m.results,
		Done:        m.done,
		Failed:      m.failed,
		Err:         m.errMsg,
		Identities:  m.idents,
		DelayAlarms: m.delay[:len(m.delay):len(m.delay)],
		FwdAlarms:   m.fwd[:len(m.fwd):len(m.fwd)],
		Events:      m.evs[:len(m.evs):len(m.evs)],
		marks:       m.marks[:len(m.marks):len(m.marks)],
		enc:         m.enc,
	}
	if m.delayMag != nil || m.fwdMag != nil {
		snap.delayMag, snap.fwdMag = m.delayMag, m.fwdMag
		snap.MagStart, snap.MagEnd = m.magStart, m.magThrough
		for k, a := range m.ases {
			snap.ases[k] = a[:len(a):len(a)]
		}
	}
	return snap
}

// apply advances the mirror by one decoded feed delta. The caller has
// already handled sequencing (skipping stale deltas, detecting gaps); apply
// only interprets content: a Full delta starts the mirror over (run
// identity aside), and then every delta — Full or not — appends. A nil
// Identities means "keep the previous value": only live deltas and the
// last delta of a catch-up carry it.
func (m *mirror) apply(d *Delta) {
	if d.Full {
		*m = mirror{meta: m.meta, binSize: m.binSize}
	}
	m.delay = append(m.delay, d.DelayAlarms...)
	m.fwd = append(m.fwd, d.FwdAlarms...)
	m.evs = append(m.evs, d.Events...)
	magSet := len(d.DelayMag) > 0 || len(d.FwdMag) > 0 || !d.MagThrough.IsZero()
	if magSet {
		m.delayMag, m.ases[0] = extendMag(m.delayMag, m.ases[0], d.DelayMag)
		m.fwdMag, m.ases[1] = extendMag(m.fwdMag, m.ases[1], d.FwdMag)
		m.magStart, m.magThrough = d.MagStart, d.MagThrough
	}
	if !d.Bin.IsZero() {
		m.lastBin = d.Bin
	}
	m.seq = d.Seq
	m.results = d.Results
	if d.Identities != nil {
		m.idents = *d.Identities
	}
	if d.Done {
		m.done = true
	}
	if d.Failed {
		m.failed = true
		m.errMsg = d.Err
	}
	m.marks = append(m.marks, seqMark{
		bin: unixOf(d.Bin), magEnd: unixOf(m.magThrough), results: d.Results,
		delay: len32(len(m.delay)), fwd: len32(len(m.fwd)), events: len32(len(m.evs)),
		ases:   [2]uint32{len32(len(m.ases[0])), len32(len(m.ases[1]))},
		magSet: magSet,
	})
}

// extendMag returns a copy of src with rows appended to their series, and
// order extended by the ASes that had none: the one per-delta map copy a
// published, concurrently read map costs. The series' backing arrays are
// shared and only ever written past the lengths src (and the snapshots
// holding it) can see.
func extendMag(src map[ipmap.ASN][]float64, order []ipmap.ASN, rows []MagRow) (map[ipmap.ASN][]float64, []ipmap.ASN) {
	out := make(map[ipmap.ASN][]float64, len(src))
	maps.Copy(out, src)
	for _, r := range rows {
		asn := ipmap.ASN(r.ASN)
		vals, ok := out[asn]
		if !ok {
			order = append(order, asn)
		}
		out[asn] = append(vals, r.V)
	}
	return out, order
}

// restoreFromRecords advances the mirror, at seq 1, through a segment
// store's committed records — the writer's boot path. After n records the
// mirror sits at seq n+1, where the run that wrote them stood, with a mark
// for every seq. each also sees every decoded record (the writer seeds its
// aggregator from it).
func (m *mirror) restoreFromRecords(st *segstore.Store, each func(*segstore.BinRecord)) error {
	var rec segstore.BinRecord
	for i := 0; i < st.Len(); i++ {
		if err := st.Record(i, &rec); err != nil {
			return fmt.Errorf("serve: decoding committed segment %d: %w", i, err)
		}
		d := deltaFromRecord(&rec, uint64(i+2), m.binSize)
		m.apply(&d)
		each(&rec)
	}
	return nil
}
