package serve

// Rendering: every list and magnitude payload is built from rows encoded by
// the reflection-free append*JSON encoders below — byte for byte what
// json.MarshalIndent(v, "", "  ") emits, which stays on as the test oracle
// (FuzzRenderDifferential). History is append-only, so the encoded form is
// too: a mirror owns one encoded stream per list and per (family, AS)
// magnitude series, each row is encoded once, and a snapshot — a row count
// — reads a byte prefix of it.

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"time"

	"pinpoint/internal/ipmap"
	"pinpoint/internal/jsonenc"
)

// Brace indentation of a row inside a bare list, and inside an array one
// level down (a page's "items", a magnitude family).
const (
	listIndent   = "  "
	nestedIndent = "    "
)

// rowEncoder appends one row as an indented JSON object whose braces sit at
// indentation ind, preceded by a newline (and by no comma: separators are
// the caller's). It fails exactly where json.Marshal does: on a non-finite
// float or a time outside years [0, 9999].
type rowEncoder[T any] func(dst []byte, ind string, row *T) ([]byte, error)

func appendDelayAlarmJSON(dst []byte, ind string, a *DelayAlarm) ([]byte, error) {
	e := rowEnc{dst, ind, nil}
	e.open()
	e.time(`"bin": `, a.Bin)
	e.str(`"link": `, a.Link)
	e.float(`"median_ms": `, a.MedianMS)
	e.float(`"reference_ms": `, a.RefMS)
	e.float(`"shift_ms": `, a.ShiftMS)
	e.float(`"deviation": `, a.Deviation)
	e.int(`"probes": `, int(a.Probes))
	e.int(`"ases": `, int(a.ASes))
	return e.close()
}

func appendFwdAlarmJSON(dst []byte, ind string, a *FwdAlarm) ([]byte, error) {
	e := rowEnc{dst, ind, nil}
	e.open()
	e.time(`"bin": `, a.Bin)
	e.str(`"router": `, a.Router)
	e.str(`"dst": `, a.Dst)
	e.float(`"rho": `, a.Rho)
	e.str(`"top_hop": `, a.TopHop)
	e.float(`"top_responsibility": `, a.TopR)
	return e.close()
}

func appendEventJSON(dst []byte, ind string, ev *Event) ([]byte, error) {
	e := rowEnc{dst, ind, nil}
	e.open()
	e.str(`"asn": `, ev.ASN)
	e.time(`"bin": `, ev.Bin)
	e.str(`"type": `, ev.Type)
	e.float(`"magnitude": `, ev.Magnitude)
	return e.close()
}

// appendPointJSON encodes the magnitude v of bin t in Point's wire form.
func appendPointJSON(dst []byte, ind string, t time.Time, v float64) ([]byte, error) {
	e := rowEnc{dst, ind, nil}
	e.open()
	e.time(`"t": `, t)
	e.float(`"v": `, v)
	return e.close()
}

// rowEnc is the state of one row encoding: the first failure sticks and
// later fields are skipped.
type rowEnc struct {
	b   []byte
	ind string
	err error
}

func (e *rowEnc) open() {
	e.b = append(e.b, '\n')
	e.b = append(e.b, e.ind...)
	e.b = append(e.b, '{')
}

func (e *rowEnc) close() ([]byte, error) {
	e.b = append(e.b, '\n')
	e.b = append(e.b, e.ind...)
	return append(e.b, '}'), e.err
}

// key starts a field on its own line, one level inside the braces. Values
// end in a quote or a digit, so a trailing '{' is the row's own.
func (e *rowEnc) key(k string) {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '\n')
	e.b = append(e.b, e.ind...)
	e.b = append(e.b, "  "...)
	e.b = append(e.b, k...)
}

func (e *rowEnc) str(k, s string) {
	e.key(k)
	e.b = jsonenc.AppendString(e.b, s)
}

func (e *rowEnc) int(k string, n int) {
	e.key(k)
	e.b = strconv.AppendInt(e.b, int64(n), 10)
}

func (e *rowEnc) float(k string, f float64) {
	e.key(k)
	var ok bool
	if e.b, ok = jsonenc.AppendFloat(e.b, f); !ok && e.err == nil {
		e.err = errors.New("serve: unsupported float value " + strconv.FormatFloat(f, 'g', -1, 64))
	}
}

// time appends t as Time.MarshalJSON does (strict RFC 3339; its digits and
// punctuation never need escaping).
func (e *rowEnc) time(k string, t time.Time) {
	e.key(k)
	e.b = append(e.b, '"')
	b, err := t.AppendText(e.b)
	if err != nil {
		b = e.b // AppendText hands back nil
		if e.err == nil {
			e.err = err
		}
	}
	e.b = append(b, '"')
}

// FNV-1a, 64 bit, with the state exposed so a stream can resume it per row.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a[S []byte | string](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// quoteETag formats a hash as a strong entity tag.
func quoteETag(h uint64) string {
	b := append(make([]byte, 0, 18), '"')
	b = strconv.AppendUint(b, h, 16)
	return string(append(b, '"'))
}

// etagFor derives a strong ETag for parameterized reads: history is
// append-only — one bin per seq, closed bins immutable — so (seq, query)
// identifies the bytes on the writer, on every follower, and across a
// store-backed writer restart.
func etagFor(seq uint64, rawQuery string) string {
	var buf [20]byte
	h := fnv1a(fnvOffset, strconv.AppendUint(buf[:0], seq, 10))
	return quoteETag(fnv1a(fnv1a(h, "|"), rawQuery))
}

// etagMatch reports whether an If-None-Match header names etag, by the weak
// comparison RFC 9110 §13.1.2 prescribes for it: "*" matches anything, a
// list matches on any member, and a W/ prefix (what a compressing proxy
// makes of our strong tags) is ignored.
func etagMatch(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for {
		header = strings.TrimPrefix(strings.TrimLeft(header, " \t,"), "W/")
		if len(header) < 2 || header[0] != '"' {
			return false
		}
		end := strings.IndexByte(header[1:], '"')
		if end < 0 {
			return false
		}
		if header[:end+2] == etag {
			return true
		}
		header = header[end+2:]
	}
}

// stream is the append-only encoded form of one row sequence: every row as
// ",\n<ind>{…}", so rows [i, j) are the bytes between two marks minus the
// leading comma. Rows are encoded on first read, under mu, by the reader
// whose snapshot has rows the stream has not — never at publish (a role
// nobody reads renders nothing) and never twice. Bytes below a mark are
// final: readers use their prefix after dropping the lock.
type stream struct {
	mu      sync.Mutex
	buf     []byte
	marks   []mark // one per encoded row
	err     error  // the row after marks failed to encode; nothing follows it
	encodes int    // encoder invocations, == len(marks) unless rows re-encode
}

// mark closes one encoded row: its end offset in buf, and the FNV-1a state
// over "[" plus buf[1:end] — the bare-list payload up to and including the
// row, which is what a list's ETag hashes.
type mark struct {
	end int
	sum uint64
}

// render extends st through row n-1, encoding row i with enc, and returns
// the encoded bytes and marks covering rows [0, n). Every snapshot sharing
// st holds a prefix of the same append-only rows, so row i means the same
// bytes to all of them.
func render(st *stream, n int, ind string, enc func(dst []byte, ind string, i int) ([]byte, error)) ([]byte, []mark, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := len(st.marks); i < n && st.err == nil; i++ {
		start := len(st.buf)
		st.encodes++
		b, err := enc(append(st.buf, ','), ind, i)
		if err != nil {
			st.err = err
			break
		}
		sum := fnv1a(fnvOffset, "[")
		if i > 0 {
			sum = fnv1a(st.marks[i-1].sum, ",")
		}
		st.buf = b
		st.marks = append(st.marks, mark{len(b), fnv1a(sum, b[start+1:])})
	}
	if n > len(st.marks) {
		return nil, nil, st.err
	}
	return st.buf, st.marks[:n], nil
}

// span returns the encoded rows [i, j) without the leading separator; nil
// when the range is empty.
func span(buf []byte, marks []mark, i, j int) []byte {
	if i >= j {
		return nil
	}
	start := 0
	if i > 0 {
		start = marks[i-1].end
	}
	return buf[start+1 : marks[j-1].end]
}

// listETag is the FNV-1a of the bare-list payload the marks cover: the
// hashed rows plus the closing bracket and newline.
func listETag(marks []mark) string {
	if len(marks) == 0 {
		return quoteETag(fnv1a(fnvOffset, "[]\n"))
	}
	return quoteETag(fnv1a(marks[len(marks)-1].sum, "\n]\n"))
}

// appendArray appends rows — encoded, comma-joined, or none — as an array
// whose brackets sit at indentation ind; an empty one is "[]".
func appendArray(b, rows []byte, ind string) []byte {
	b = append(append(b, '['), rows...)
	if len(rows) > 0 {
		b = append(append(b, '\n'), ind...)
	}
	return append(b, ']')
}

// magKey names one magnitude series: an AS and one of its two families.
type magKey struct {
	asn ipmap.ASN
	fwd bool
}

// streams are one mirror's encoded streams, shared by every snapshot it
// assembles. A Full delta starts a fresh mirror and with it fresh streams.
type streams struct {
	delay, fwd, events stream

	mu  sync.Mutex
	mag map[magKey]*stream // created on an AS's first read
}

func (ss *streams) magnitude(k magKey) *stream {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st := ss.mag[k]
	if st == nil {
		st = new(stream)
		ss.mag[k] = st
	}
	return st
}

// bodyPool recycles response-assembly buffers across requests.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}
