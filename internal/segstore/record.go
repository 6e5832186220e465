package segstore

import (
	"encoding/binary"
	"errors"
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

// Minimal encoded size of each row kind — a zero row, whose strings are
// empty — used to reject absurd counts before allocating.
var (
	minDelayRow  = minRow(delayRows)
	minFwdRow    = minRow(fwdRows)
	minEventRow  = minRow(eventRows)
	minSeriesRow = minRow(seriesRows)
)

// ErrLongString is the error AppendRecord and Store.Append return for a
// record holding a row string longer than its u16 length field can state
// (65 535 bytes). Nothing of such a record is encoded or committed: a
// truncated string would restore a different row than the one published.
var ErrLongString = errors.New("segstore: row string longer than 65535 bytes")

// CorruptError reports segment bytes that cannot be decoded. Every decode
// failure is one of these — decoding never panics on hostile input.
type CorruptError struct {
	Offset int    // byte offset in the payload where decoding failed
	Reason string // what was wrong
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("segstore: corrupt segment at byte %d: %s", e.Offset, e.Reason)
}

// AppendRecord appends the columnar encoding of rec to dst and returns the
// extended slice. It fails only with ErrLongString. The layout is the walk
// of record and the row functions it calls.
func AppendRecord(dst []byte, rec *BinRecord) ([]byte, error) {
	c := codec{b: dst, enc: true}
	c.record(rec)
	return c.b, c.err
}

// DecodeRecord decodes a segment payload into rec, reusing rec's slices.
// Any malformed input yields a *CorruptError; valid encodings round-trip
// exactly (AppendRecord ∘ DecodeRecord is the identity on the encoding).
func DecodeRecord(b []byte, rec *BinRecord) error {
	c := codec{b: b}
	c.record(rec)
	if c.err == nil && c.off != len(b) {
		c.fail(c.off, "%d trailing bytes", len(b)-c.off)
	}
	return c.err
}

// record walks one payload. Little-endian throughout: u32 magic, u32 flags
// (0), the bin, the first bin and the result count, the five row counts,
// then each row kind's columns in the order its row function visits them.
// All counts precede all rows so that decoding checks them together before
// allocating any row.
func (c *codec) record(rec *BinRecord) {
	magic, flags := payloadMagic, uint32(0)
	if c.u32(&magic); magic != payloadMagic {
		c.fail(0, "bad payload magic %#x", magic)
	}
	if c.u32(&flags); flags != 0 {
		c.fail(4, "unsupported payload flags %#x", flags)
	}
	c.time(&rec.Bin)
	c.time(&rec.FirstBin)
	c.i64(&rec.Results)
	nDelay := c.count(len(rec.Delay), minDelayRow)
	nFwd := c.count(len(rec.Fwd), minFwdRow)
	nEvents := c.count(len(rec.Events), minEventRow)
	nMag := c.count(len(rec.Mag), minSeriesRow)
	nRaw := c.count(len(rec.Raw), minSeriesRow)
	if !c.enc {
		rec.Delay = resize(rec.Delay, nDelay)
		rec.Fwd = resize(rec.Fwd, nFwd)
		rec.Events = resize(rec.Events, nEvents)
		rec.Mag = resize(rec.Mag, nMag)
		rec.Raw = resize(rec.Raw, nRaw)
	}
	delayRows(c, rec.Delay)
	fwdRows(c, rec.Fwd)
	eventRows(c, rec.Events)
	seriesRows(c, rec.Mag)
	seriesRows(c, rec.Raw)
}

func delayRows(c *codec, rows []DelayRow) {
	for i := range rows {
		c.time(&rows[i].Bin)
	}
	for i := range rows {
		c.f64(&rows[i].MedianMS)
	}
	for i := range rows {
		c.f64(&rows[i].RefMS)
	}
	for i := range rows {
		c.f64(&rows[i].ShiftMS)
	}
	for i := range rows {
		c.f64(&rows[i].Deviation)
	}
	for i := range rows {
		c.i32(&rows[i].Probes)
	}
	for i := range rows {
		c.i32(&rows[i].ASes)
	}
	for i := range rows {
		c.str(&rows[i].Link)
	}
}

func fwdRows(c *codec, rows []FwdRow) {
	for i := range rows {
		c.time(&rows[i].Bin)
	}
	for i := range rows {
		c.f64(&rows[i].Rho)
	}
	for i := range rows {
		c.f64(&rows[i].TopR)
	}
	for i := range rows {
		c.str(&rows[i].Router)
	}
	for i := range rows {
		c.str(&rows[i].Dst)
	}
	for i := range rows {
		c.str(&rows[i].TopHop)
	}
}

func eventRows(c *codec, rows []EventRow) {
	for i := range rows {
		c.u32(&rows[i].ASN)
	}
	for i := range rows {
		c.time(&rows[i].Bin)
	}
	for i := range rows {
		c.u8(&rows[i].Type)
	}
	for i := range rows {
		c.f64(&rows[i].Magnitude)
	}
}

// seriesRows is the layout of both the magnitude points and the raw sums.
func seriesRows(c *codec, rows []SeriesRow) {
	for i := range rows {
		if c.u8(&rows[i].Family); !c.enc && rows[i].Family > FamilyFwd {
			c.fail(c.off-1, "bad series family %d", rows[i].Family)
		}
	}
	for i := range rows {
		c.u32(&rows[i].ASN)
	}
	for i := range rows {
		c.time(&rows[i].Bin)
	}
	for i := range rows {
		c.f64(&rows[i].V)
	}
}

// minRow is the encoded size of one zero row of a kind.
func minRow[T any](rows func(*codec, []T)) int {
	c := codec{enc: true}
	rows(&c, make([]T, 1))
	return len(c.b)
}

// resize returns s resized to n rows, reallocating only when it must.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release is the reuse rule of every buffer kept from one close to the
// next (the store's frame buffer, a publisher's open record): s emptied for
// reuse, or nil when its capacity is more than 4× the n elements its last
// use needed and more than 64. Steady uses keep their buffer; one oversized
// close does not pin its capacity for the rest of the run.
func release[T any](s []T, n int) []T {
	if c := cap(s); c > 64 && c > 4*n {
		return nil
	}
	return s[:0]
}

// Reset empties rec for the next close, each row slice through the release
// rule against the rows it held.
func (rec *BinRecord) Reset() {
	*rec = BinRecord{
		Delay:  release(rec.Delay, len(rec.Delay)),
		Fwd:    release(rec.Fwd, len(rec.Fwd)),
		Events: release(rec.Events, len(rec.Events)),
		Mag:    release(rec.Mag, len(rec.Mag)),
		Raw:    release(rec.Raw, len(rec.Raw)),
	}
}

// codec visits the fields of one payload in wire order. Encoding appends
// each field to b; decoding reads it from b at off, bounds-checked. The
// first failure sticks: every later field is skipped, so a walk reports
// where it first went wrong.
type codec struct {
	b   []byte
	off int // decoding: the read cursor
	enc bool
	err error

	claimed int64 // decoding: bytes the row counts read so far need at least
}

func (c *codec) fail(off int, format string, args ...any) {
	if c.err == nil {
		c.err = &CorruptError{Offset: off, Reason: fmt.Sprintf(format, args...)}
	}
}

// take consumes the next n payload bytes; ok is false once decoding failed.
func (c *codec) take(n int) (p []byte, ok bool) {
	if c.err != nil {
		return nil, false
	}
	if len(c.b)-c.off < n {
		c.fail(c.off, "truncated: need %d bytes, have %d", n, len(c.b)-c.off)
		return nil, false
	}
	c.off += n
	return c.b[c.off-n : c.off], true
}

func (c *codec) u8(v *uint8) {
	if c.enc {
		c.b = append(c.b, *v)
	} else if p, ok := c.take(1); ok {
		*v = p[0]
	}
}

func (c *codec) u32(v *uint32) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint32(c.b, *v)
	} else if p, ok := c.take(4); ok {
		*v = binary.LittleEndian.Uint32(p)
	}
}

func (c *codec) u64(v *uint64) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
	} else if p, ok := c.take(8); ok {
		*v = binary.LittleEndian.Uint64(p)
	}
}

// The conversions below write back only when decoding: an encoded record
// may be read concurrently and is never written.

func (c *codec) i32(v *int32) {
	u := uint32(*v)
	if c.u32(&u); !c.enc {
		*v = int32(u)
	}
}

func (c *codec) i64(v *int64) {
	u := uint64(*v)
	if c.u64(&u); !c.enc {
		*v = int64(u)
	}
}

func (c *codec) f64(v *float64) {
	u := math.Float64bits(*v)
	if c.u64(&u); !c.enc {
		*v = math.Float64frombits(u)
	}
}

// time visits a bin time as unix seconds. Bins are whole-second UTC wall
// times (timeseries.Bin truncates), so this is an exact round trip.
func (c *codec) time(t *time.Time) {
	s := t.Unix()
	if c.i64(&s); !c.enc {
		*t = unixUTC(s)
	}
}

// str visits a string as a u16 length and its bytes.
func (c *codec) str(s *string) {
	if c.enc {
		if len(*s) > math.MaxUint16 {
			c.err = ErrLongString
			return
		}
		c.b = binary.LittleEndian.AppendUint16(c.b, uint16(len(*s)))
		c.b = append(c.b, *s...)
	} else if p, ok := c.take(2); ok {
		if q, ok := c.take(int(binary.LittleEndian.Uint16(p))); ok {
			*s = string(q)
		}
	}
}

// count visits a row count. Decoding rejects it unless the rows of every
// count read so far, each at its minimal size, fit in the bytes left, so a
// hostile header cannot trigger allocations beyond a small multiple of the
// payload before the per-field bounds checks run. It returns 0 after a
// failure.
func (c *codec) count(n, minRow int) int {
	v := uint32(n)
	if c.u32(&v); c.enc {
		return n
	}
	if c.claimed += int64(v) * int64(minRow); c.err == nil && c.claimed > int64(len(c.b)-c.off) {
		c.fail(c.off-4, "count %d exceeds payload capacity", v)
	}
	if c.err != nil {
		return 0
	}
	return int(v)
}

func unixUTC(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

func le32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func le64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
