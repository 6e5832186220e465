package segstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Series families for SeriesRow.Family.
const (
	FamilyDelay = uint8(0)
	FamilyFwd   = uint8(1)
)

// DelayRow is one §4 delay-change alarm in wire form: the row the serving
// layer publishes (serve.DelayAlarm is this type, and the JSON tags are its
// HTTP and feed payload), stored with its strings exactly as published so
// restored payloads are byte-identical.
type DelayRow struct {
	Bin       time.Time `json:"bin"`
	Link      string    `json:"link"`
	MedianMS  float64   `json:"median_ms"`
	RefMS     float64   `json:"reference_ms"`
	ShiftMS   float64   `json:"shift_ms"`
	Deviation float64   `json:"deviation"`
	Probes    int32     `json:"probes"`
	ASes      int32     `json:"ases"`
}

// FwdRow is one §5 forwarding anomaly in wire form (serve.FwdAlarm).
type FwdRow struct {
	Bin    time.Time `json:"bin"`
	Router string    `json:"router"`
	Dst    string    `json:"dst"`
	Rho    float64   `json:"rho"`
	TopHop string    `json:"top_hop"`
	TopR   float64   `json:"top_responsibility"`
}

// EventRow is one per-AS event, stored numerically (ASN and event type are
// re-stringified on restore through the same code path that produced the
// original wire form).
type EventRow struct {
	Bin       time.Time
	ASN       uint32
	Type      uint8
	Magnitude float64
}

// SeriesRow is one per-(family, AS, bin) float: either a magnitude point
// appended by the incremental close (including its zero backfill) or a raw
// deviation/responsibility sum finalized by the close.
type SeriesRow struct {
	Bin    time.Time
	ASN    uint32
	Family uint8
	V      float64
}

// BinRecord is everything one closed bin contributes to the read model.
// Mag carries the magnitude points the close appended; Raw carries the raw
// series sums the magnitude window math needs after a restart.
type BinRecord struct {
	Bin      time.Time
	FirstBin time.Time
	Results  int64
	Delay    []DelayRow
	Fwd      []FwdRow
	Events   []EventRow
	Mag      []SeriesRow
	Raw      []SeriesRow
}

// payloadMagic opens every encoded segment payload.
const payloadMagic = uint32(0x31474553) // "SEG1"

// Minimal encoded size of each row kind, used to reject absurd counts
// before allocating.
const (
	minDelayRow  = 8 + 4*8 + 2*4 + 2 // bin, 4 floats, probes+ases, empty-string len
	minFwdRow    = 8 + 2*8 + 3*2
	minEventRow  = 8 + 4 + 1 + 8
	minSeriesRow = 8 + 4 + 1 + 8
)

// CorruptError reports segment bytes that cannot be decoded. Every decode
// failure is one of these — decoding never panics on hostile input.
type CorruptError struct {
	Offset int    // byte offset in the payload where decoding failed
	Reason string // what was wrong
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("segstore: corrupt segment at byte %d: %s", e.Offset, e.Reason)
}

func corrupt(off int, format string, args ...any) error {
	return &CorruptError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// AppendRecord appends the columnar encoding of rec to dst and returns the
// extended slice. Layout (little-endian throughout):
//
//	u32 payload magic, u32 flags (0)
//	i64 bin, i64 firstBin, i64 results
//	u32 nDelay, u32 nFwd, u32 nEvents, u32 nMag, u32 nRaw
//	delay columns:  bins i64×n, median f64×n, ref f64×n, shift f64×n,
//	                dev f64×n, probes i32×n, ases i32×n, links (u16+bytes)×n
//	fwd columns:    bins i64×n, rho f64×n, topR f64×n,
//	                routers (u16+bytes)×n, dsts ×n, topHops ×n
//	event columns:  asn u32×n, bin i64×n, type u8×n, magnitude f64×n
//	mag columns:    family u8×n, asn u32×n, bin i64×n, v f64×n
//	raw columns:    same as mag
func AppendRecord(dst []byte, rec *BinRecord) []byte {
	dst = le32(dst, payloadMagic)
	dst = le32(dst, 0)
	dst = le64(dst, uint64(rec.Bin.Unix()))
	dst = le64(dst, uint64(rec.FirstBin.Unix()))
	dst = le64(dst, uint64(rec.Results))
	dst = le32(dst, uint32(len(rec.Delay)))
	dst = le32(dst, uint32(len(rec.Fwd)))
	dst = le32(dst, uint32(len(rec.Events)))
	dst = le32(dst, uint32(len(rec.Mag)))
	dst = le32(dst, uint32(len(rec.Raw)))

	for i := range rec.Delay {
		dst = le64(dst, uint64(rec.Delay[i].Bin.Unix()))
	}
	for i := range rec.Delay {
		dst = le64(dst, math.Float64bits(rec.Delay[i].MedianMS))
	}
	for i := range rec.Delay {
		dst = le64(dst, math.Float64bits(rec.Delay[i].RefMS))
	}
	for i := range rec.Delay {
		dst = le64(dst, math.Float64bits(rec.Delay[i].ShiftMS))
	}
	for i := range rec.Delay {
		dst = le64(dst, math.Float64bits(rec.Delay[i].Deviation))
	}
	for i := range rec.Delay {
		dst = le32(dst, uint32(rec.Delay[i].Probes))
	}
	for i := range rec.Delay {
		dst = le32(dst, uint32(rec.Delay[i].ASes))
	}
	for i := range rec.Delay {
		dst = leStr(dst, rec.Delay[i].Link)
	}

	for i := range rec.Fwd {
		dst = le64(dst, uint64(rec.Fwd[i].Bin.Unix()))
	}
	for i := range rec.Fwd {
		dst = le64(dst, math.Float64bits(rec.Fwd[i].Rho))
	}
	for i := range rec.Fwd {
		dst = le64(dst, math.Float64bits(rec.Fwd[i].TopR))
	}
	for i := range rec.Fwd {
		dst = leStr(dst, rec.Fwd[i].Router)
	}
	for i := range rec.Fwd {
		dst = leStr(dst, rec.Fwd[i].Dst)
	}
	for i := range rec.Fwd {
		dst = leStr(dst, rec.Fwd[i].TopHop)
	}

	for i := range rec.Events {
		dst = le32(dst, rec.Events[i].ASN)
	}
	for i := range rec.Events {
		dst = le64(dst, uint64(rec.Events[i].Bin.Unix()))
	}
	for i := range rec.Events {
		dst = append(dst, rec.Events[i].Type)
	}
	for i := range rec.Events {
		dst = le64(dst, math.Float64bits(rec.Events[i].Magnitude))
	}

	dst = appendSeries(dst, rec.Mag)
	dst = appendSeries(dst, rec.Raw)
	return dst
}

func appendSeries(dst []byte, rows []SeriesRow) []byte {
	for i := range rows {
		dst = append(dst, rows[i].Family)
	}
	for i := range rows {
		dst = le32(dst, rows[i].ASN)
	}
	for i := range rows {
		dst = le64(dst, uint64(rows[i].Bin.Unix()))
	}
	for i := range rows {
		dst = le64(dst, math.Float64bits(rows[i].V))
	}
	return dst
}

// DecodeRecord decodes a segment payload into rec, reusing rec's slices.
// Any malformed input yields a *CorruptError; valid encodings round-trip
// exactly (AppendRecord ∘ DecodeRecord is the identity on the encoding).
func DecodeRecord(b []byte, rec *BinRecord) error {
	r := reader{b: b}
	magic, err := r.u32()
	if err != nil {
		return err
	}
	if magic != payloadMagic {
		return corrupt(0, "bad payload magic %#x", magic)
	}
	flags, err := r.u32()
	if err != nil {
		return err
	}
	if flags != 0 {
		return corrupt(4, "unsupported payload flags %#x", flags)
	}
	binSec, err := r.i64()
	if err != nil {
		return err
	}
	firstSec, err := r.i64()
	if err != nil {
		return err
	}
	results, err := r.i64()
	if err != nil {
		return err
	}
	nDelay, err := r.count(minDelayRow)
	if err != nil {
		return err
	}
	nFwd, err := r.count(minFwdRow)
	if err != nil {
		return err
	}
	nEvents, err := r.count(minEventRow)
	if err != nil {
		return err
	}
	nMag, err := r.count(minSeriesRow)
	if err != nil {
		return err
	}
	nRaw, err := r.count(minSeriesRow)
	if err != nil {
		return err
	}

	rec.Bin = unixUTC(binSec)
	rec.FirstBin = unixUTC(firstSec)
	rec.Results = results
	rec.Delay = growDelay(rec.Delay[:0], nDelay)
	rec.Fwd = growFwd(rec.Fwd[:0], nFwd)
	rec.Events = growEvents(rec.Events[:0], nEvents)
	rec.Mag = growSeries(rec.Mag[:0], nMag)
	rec.Raw = growSeries(rec.Raw[:0], nRaw)

	for i := range rec.Delay {
		s, err := r.i64()
		if err != nil {
			return err
		}
		rec.Delay[i].Bin = unixUTC(s)
	}
	for i := range rec.Delay {
		if rec.Delay[i].MedianMS, err = r.f64(); err != nil {
			return err
		}
	}
	for i := range rec.Delay {
		if rec.Delay[i].RefMS, err = r.f64(); err != nil {
			return err
		}
	}
	for i := range rec.Delay {
		if rec.Delay[i].ShiftMS, err = r.f64(); err != nil {
			return err
		}
	}
	for i := range rec.Delay {
		if rec.Delay[i].Deviation, err = r.f64(); err != nil {
			return err
		}
	}
	for i := range rec.Delay {
		v, err := r.u32()
		if err != nil {
			return err
		}
		rec.Delay[i].Probes = int32(v)
	}
	for i := range rec.Delay {
		v, err := r.u32()
		if err != nil {
			return err
		}
		rec.Delay[i].ASes = int32(v)
	}
	for i := range rec.Delay {
		if rec.Delay[i].Link, err = r.str(); err != nil {
			return err
		}
	}

	for i := range rec.Fwd {
		s, err := r.i64()
		if err != nil {
			return err
		}
		rec.Fwd[i].Bin = unixUTC(s)
	}
	for i := range rec.Fwd {
		if rec.Fwd[i].Rho, err = r.f64(); err != nil {
			return err
		}
	}
	for i := range rec.Fwd {
		if rec.Fwd[i].TopR, err = r.f64(); err != nil {
			return err
		}
	}
	for i := range rec.Fwd {
		if rec.Fwd[i].Router, err = r.str(); err != nil {
			return err
		}
	}
	for i := range rec.Fwd {
		if rec.Fwd[i].Dst, err = r.str(); err != nil {
			return err
		}
	}
	for i := range rec.Fwd {
		if rec.Fwd[i].TopHop, err = r.str(); err != nil {
			return err
		}
	}

	for i := range rec.Events {
		if rec.Events[i].ASN, err = r.u32(); err != nil {
			return err
		}
	}
	for i := range rec.Events {
		s, err := r.i64()
		if err != nil {
			return err
		}
		rec.Events[i].Bin = unixUTC(s)
	}
	for i := range rec.Events {
		if rec.Events[i].Type, err = r.u8(); err != nil {
			return err
		}
	}
	for i := range rec.Events {
		if rec.Events[i].Magnitude, err = r.f64(); err != nil {
			return err
		}
	}

	if err := decodeSeries(&r, rec.Mag); err != nil {
		return err
	}
	if err := decodeSeries(&r, rec.Raw); err != nil {
		return err
	}
	if r.off != len(r.b) {
		return corrupt(r.off, "%d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

func decodeSeries(r *reader, rows []SeriesRow) error {
	var err error
	for i := range rows {
		if rows[i].Family, err = r.u8(); err != nil {
			return err
		}
		if rows[i].Family > FamilyFwd {
			return corrupt(r.off-1, "bad series family %d", rows[i].Family)
		}
	}
	for i := range rows {
		if rows[i].ASN, err = r.u32(); err != nil {
			return err
		}
	}
	for i := range rows {
		s, err := r.i64()
		if err != nil {
			return err
		}
		rows[i].Bin = unixUTC(s)
	}
	for i := range rows {
		if rows[i].V, err = r.f64(); err != nil {
			return err
		}
	}
	return nil
}

// unixUTC restores a bin time. Bins are whole-second UTC wall times
// (timeseries.Bin truncates), so this is an exact round trip.
func unixUTC(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

func le32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func le64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

func leStr(dst []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		// Link/router keys are short interned identifiers; anything this
		// long is a bug upstream. Truncate deterministically rather than
		// corrupt the frame.
		s = s[:math.MaxUint16]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func growDelay(s []DelayRow, n int) []DelayRow {
	if cap(s) < n {
		return make([]DelayRow, n)
	}
	return s[:n]
}

func growFwd(s []FwdRow, n int) []FwdRow {
	if cap(s) < n {
		return make([]FwdRow, n)
	}
	return s[:n]
}

func growEvents(s []EventRow, n int) []EventRow {
	if cap(s) < n {
		return make([]EventRow, n)
	}
	return s[:n]
}

func growSeries(s []SeriesRow, n int) []SeriesRow {
	if cap(s) < n {
		return make([]SeriesRow, n)
	}
	return s[:n]
}

// reader is a bounds-checked little-endian cursor over a payload.
type reader struct {
	b   []byte
	off int

	claimed int64 // bytes the row counts read so far need at least
}

func (r *reader) need(n int) error {
	if len(r.b)-r.off < n {
		return corrupt(r.off, "truncated: need %d bytes, have %d", n, len(r.b)-r.off)
	}
	return nil
}

func (r *reader) u8() (uint8, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) i64() (int64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return int64(v), nil
}

func (r *reader) f64() (float64, error) {
	v, err := r.i64()
	return math.Float64frombits(uint64(v)), err
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// count reads a row count and rejects it unless the rows of every count
// read so far, each at its minimal size, fit in the bytes left, so a
// hostile header cannot trigger allocations beyond a small multiple of the
// payload before the per-field bounds checks run.
func (r *reader) count(minRow int) (int, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	r.claimed += int64(v) * int64(minRow)
	if r.claimed > int64(len(r.b)-r.off) {
		return 0, corrupt(r.off-4, "count %d exceeds payload capacity", v)
	}
	return int(v), nil
}
