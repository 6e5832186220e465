package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the hand-rolled fast path for the Atlas NDJSON wire format:
// a single-pass byte scanner that dispatches on key bytes directly, with no
// intermediate wireResult and no reflection. Result.UnmarshalJSON (json.go)
// stays as the reference oracle — FuzzDecodeDifferential asserts that for
// every input the two decoders either produce the same Result or both
// reject — so the fast path must mirror encoding/json's observable
// behavior exactly: case-insensitive key matching, last-key-wins
// duplicates, null-is-a-no-op on int/string fields (but clears pointer and
// slice fields), strict number grammar, lone-surrogate and invalid-UTF-8
// sanitization, the 10000-level nesting limit, and structural skipping of
// unknown fields (ttl, size, late, err, future Atlas keys).

// MaxLineBytes bounds a single NDJSON line for Reader (and, via an alias,
// internal/ingest). An oversized line is drained so the stream stays
// aligned on the next newline, and reported as ErrLineTooLong.
const MaxLineBytes = 16 * 1024 * 1024

// ErrLineTooLong reports a line exceeding MaxLineBytes. Reader returns it
// wrapped with the line number; internal/ingest routes it through its
// per-line error policy.
var ErrLineTooLong = fmt.Errorf("line exceeds the %d MiB limit", MaxLineBytes/(1024*1024))

// maxDecodeDepth mirrors encoding/json's scanner nesting limit, so deeply
// nested unknown fields reject on both decoders.
const maxDecodeDepth = 10000

// maxAddrCache bounds the decoder's distinct-address memo; real dumps hold
// a few hundred thousand distinct addresses, hostile input stops inserting
// (but keeps decoding correctly) beyond the cap.
const maxAddrCache = 1 << 20

// DecodeError reports a syntax or shape violation the fast decoder found in
// a wire line, with the byte offset where scanning stopped.
type DecodeError struct {
	Offset int
	Msg    string
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("trace: invalid wire result at offset %d: %s", e.Offset, e.Msg)
}

// strRef locates a decoded string: either a zero-copy window into the input
// line (clean strings) or a window into the decoder's unescape buffer
// (strings that carried escapes).
type strRef struct {
	off, n int32
	buf    bool
}

// pendAddr is a "from" address of a kept reply. A dotted quad parsed during
// the scan (quad set) carries its big-endian value v; any other text waits
// as ref for post-scan parsing, which resolves addresses only after the
// whole line scanned cleanly, mirroring encoding/json's validate-then-walk
// order (a syntax error anywhere in the line beats an address error earlier
// in it). A parsed quad cannot fail, so it cannot reorder those errors.
type pendAddr struct {
	reply int32
	v     uint32
	quad  bool
	ref   strRef
}

// Decoder decodes Atlas wire lines with reusable scratch state. The zero
// value is ready to use; a Decoder is NOT safe for concurrent use — create
// one per goroutine (internal/ingest gives each decode worker its own).
//
// One scan serves two finishers. Decode builds a Result: two allocations
// per line (the Hops slice, one backing array for every hop's Replies),
// addresses parsed at most once per distinct text form. DecodeView builds a
// View into the caller's columns and allocates nothing: addresses go to ids
// through the caller's AddrInterner.
type Decoder struct {
	data  []byte
	pos   int
	depth int

	hops []ViewHop  // windows into rtts
	rtts []float64  // one per reply: its RTT, 0 for a timeout
	pend []pendAddr // one per kept reply; every other reply is a timeout
	buf  []byte

	addrs map[string]netip.Addr

	// The last dotted-quad "from" the scan parsed: its text and closing
	// quote, and its value. A reply whose text repeats those bytes reuses
	// the value; the key is the bytes themselves, so it never goes stale.
	quadText lit16
	quadV    uint32

	prevText []byte // DecodeView: wire text of the last address interned on this line
	prevID   uint32 // and its id
}

// emptyReplies backs every hop with no replies, so decoded hops always
// carry a non-nil Replies slice exactly like the reference decoder's.
var emptyReplies = make([]Reply, 0)

// topFields collects the scalar fields of the top-level result object
// during the scan; addresses stay as raw references until the line has
// scanned cleanly.
type topFields struct {
	msmID, prbID, parisID int
	timestamp             int64
	src, dst              strRef
}

// scan runs the single-pass scanner over line, leaving the scalar fields in
// top and the hops, reply RTTs and kept replies' addresses in the decoder's
// scratch buffers. errFallback means the line must go to the reference
// decoder.
func (d *Decoder) scan(line []byte, top *topFields) error {
	d.data, d.pos, d.depth = line, 0, 0
	d.hops = d.hops[:0]
	d.rtts = d.rtts[:0]
	d.pend = d.pend[:0]
	d.buf = d.buf[:0]
	if d.addrs == nil {
		d.addrs = make(map[string]netip.Addr)
	}

	d.skipWS()
	c, ok := d.peek()
	switch {
	case !ok:
		return d.errf("unexpected end of input")
	case c == 'n':
		// A JSON null decodes to the zero result, which then fails address
		// resolution — exactly like the oracle.
		if err := d.literal("null"); err != nil {
			return err
		}
	case c == '{':
		handled, err := d.fastTop(top)
		if !handled {
			err = d.parseTop(top)
		}
		if err != nil {
			return err
		}
	default:
		return d.errf("cannot decode %q into a result object", c)
	}
	d.skipWS()
	if d.pos != len(d.data) {
		return d.errf("invalid character after top-level value")
	}
	return nil
}

// Decode decodes one Atlas wire line into dst. On error dst is untouched.
func (d *Decoder) Decode(line []byte, dst *Result) error {
	var top topFields
	if err := d.scan(line, &top); err != nil {
		if err == errFallback {
			return dst.UnmarshalJSON(line)
		}
		return err
	}

	// The line is structurally sound; now resolve addresses in document
	// order (src, dst, then every kept reply), the oracle's error order.
	src, err := d.resolveAddr(top.src, "src_addr")
	if err != nil {
		return err
	}
	dstAddr, err := d.resolveAddr(top.dst, "dst_addr")
	if err != nil {
		return err
	}
	// Materialize: one backing array shared by every hop's replies (the
	// second and last steady-state allocation besides the Hops slice).
	var backing []Reply
	if len(d.rtts) > 0 {
		backing = make([]Reply, len(d.rtts))
		for i := range backing {
			backing[i].Timeout = true
		}
	}
	for _, p := range d.pend {
		a := addrV4(p.v)
		if !p.quad {
			if a, err = d.resolveAddr(p.ref, "from"); err != nil {
				return err
			}
		}
		backing[p.reply] = Reply{From: a, RTT: d.rtts[p.reply]}
	}
	hops := make([]Hop, len(d.hops))
	for i, hr := range d.hops {
		reps := emptyReplies
		if hr.End > hr.Start {
			reps = backing[hr.Start:hr.End:hr.End]
		}
		hops[i] = Hop{Index: hr.TTL, Replies: reps}
	}
	*dst = Result{
		MsmID:   top.msmID,
		PrbID:   top.prbID,
		Time:    time.Unix(top.timestamp, 0).UTC(),
		Src:     src,
		Dst:     dstAddr,
		ParisID: top.parisID,
		Hops:    hops,
	}
	return nil
}

// AddrInterner maps addresses to ids for DecodeView: AddrText from wire
// text, failing with netip.ParseAddr's error on text that does not parse,
// and AddrV4 from a dotted quad's big-endian value, agreeing with AddrText
// on that quad's text. ident.Interner is the implementation.
type AddrInterner interface {
	AddrText(b []byte) (uint32, error)
	AddrV4(v uint32) uint32
}

// DecodeView decodes one Atlas wire line into v, reusing v's columns. It is
// Decode without the Result: the same scan, the same accept or reject with
// the same error on every input, and the view ident.Interner.View builds
// from Decode's result when in is that interner. The source address is
// checked, not interned: no detector keys on it. On error v's contents are
// unspecified.
func (d *Decoder) DecodeView(line []byte, in AddrInterner, v *View) error {
	var top topFields
	if err := d.scan(line, &top); err != nil {
		if err != errFallback {
			return err
		}
		var r Result
		if err := r.UnmarshalJSON(line); err != nil {
			return err
		}
		v.Fill(&r, func(a netip.Addr) uint32 {
			id, _ := in.AddrText(a.AppendTo(nil)) // a parsed address renders to text that parses
			return id
		})
		return nil
	}
	if _, err := d.resolveAddr(top.src, "src_addr"); err != nil {
		return err
	}
	d.prevText = nil
	dst, err := d.internAddr(top.dst, "dst_addr", in)
	if err != nil {
		return err
	}
	v.Hops = append(v.Hops[:0], d.hops...)
	v.RTT = append(v.RTT[:0], d.rtts...)
	v.From = v.From[:0]
	for range d.rtts {
		v.From = append(v.From, 0)
	}
	// A quad interns by value. lastID 0, the View's no-address id that
	// AddrV4 never returns, marks lastV unset.
	var lastV, lastID uint32
	for _, p := range d.pend {
		if !p.quad {
			if v.From[p.reply], err = d.internAddr(p.ref, "from", in); err != nil {
				return err
			}
			continue
		}
		if p.v != lastV || lastID == 0 {
			lastV, lastID = p.v, in.AddrV4(p.v)
		}
		v.From[p.reply] = lastID
	}
	v.Time, v.Prb, v.Dst = time.Unix(top.timestamp, 0).UTC(), top.prbID, dst
	return nil
}

// ── scanner primitives ──────────────────────────────────────────────────

func (d *Decoder) peek() (byte, bool) {
	if d.pos < len(d.data) {
		return d.data[d.pos], true
	}
	return 0, false
}

func (d *Decoder) skipWS() {
	// Machine-written dumps have no whitespace, so the common case is a
	// single compare: every JSON whitespace byte is <= ' '.
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return
	}
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *Decoder) errf(format string, args ...any) error {
	return &DecodeError{Offset: d.pos, Msg: fmt.Sprintf(format, args...)}
}

// errFallback is an internal signal: the line uses a JSON shape whose
// encoding/json semantics the fast path deliberately does not model — a
// duplicate hop/reply array key re-decodes the new array over the old one's
// backing elements, merging structs field-by-field. No real Atlas line has
// one, so rather than carry merge state through the hot path both finishers
// rerun the line through the reference decoder: parity by construction.
var errFallback = fmt.Errorf("trace: fast path fallback")

func (d *Decoder) literal(s string) error {
	if len(d.data)-d.pos >= len(s) && string(d.data[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return nil
	}
	return d.errf("invalid literal, expected %s", s)
}

// lit16 is a byte string of at most 16 bytes as the two masked
// little-endian words that a 16-byte window starting with it loads to, so
// testing for it is two loads, two ANDs and two compares.
type lit16 struct {
	w, m [2]uint64
	n    int
}

// litOf is the lit16 of b[:n]; b must hold 16 bytes and n ≤ 16.
func litOf(b []byte, n int) lit16 {
	m0, m1 := lowBytes(min(n, 8)), lowBytes(max(n-8, 0))
	return lit16{
		w: [2]uint64{binary.LittleEndian.Uint64(b) & m0, binary.LittleEndian.Uint64(b[8:]) & m1},
		m: [2]uint64{m0, m1},
		n: n,
	}
}

// lowBytes masks the low k ≤ 8 bytes of a word.
func lowBytes(k int) uint64 { return ^uint64(0) >> (64 - 8*k) }

// prefixes reports whether b, which must hold 16 bytes, starts with l.
func (l *lit16) prefixes(b []byte) bool {
	return binary.LittleEndian.Uint64(b)&l.m[0] == l.w[0] && binary.LittleEndian.Uint64(b[8:])&l.m[1] == l.w[1]
}

func mkLit(s string) lit16 {
	var b [16]byte
	copy(b[:], s)
	return litOf(b[:], len(s))
}

// The canonical shape's literals, in the order our encoder (and real Atlas
// dumps) writes them. The fast shapes (fastTop, fastHop, fastReply) match
// whole members with their separators; the generic member loops probe the
// bare keys, key i dispatching like the *KeyIndex switch returning i.
var (
	msmIDLit     = mkLit(`{"msm_id":`)
	prbIDLit     = mkLit(`,"prb_id":`)
	timestampLit = mkLit(`,"timestamp":`)
	srcAddrLit   = mkLit(`,"src_addr":`)
	dstAddrLit   = mkLit(`,"dst_addr":`)
	parisIDLit   = mkLit(`,"paris_id":`)
	resultLit    = mkLit(`,"result":`)
	hopLit       = mkLit(`{"hop":`)
	timeoutLit   = mkLit(`{"x":"*"}`)
	fromLit      = mkLit(`{"from":"`)
	rttLit       = mkLit(`,"rtt":`)
	closeLit     = mkLit(`}`)

	topCanon   = [...]lit16{mkLit(`"msm_id":`), mkLit(`"prb_id":`), mkLit(`"timestamp":`), mkLit(`"src_addr":`), mkLit(`"dst_addr":`), mkLit(`"paris_id":`), mkLit(`"result":`)}
	hopCanon   = [...]lit16{mkLit(`"hop":`), mkLit(`"result":`)}
	replyCanon = [...]lit16{mkLit(`"from":`), mkLit(`"rtt":`), mkLit(`"x":`)}
)

// match advances past l when the input continues with exactly l. Within 16
// bytes of the line's end it tests a zero-padded copy of the rest: no
// literal holds a zero byte, so the padding never passes for one.
func (d *Decoder) match(l *lit16) bool {
	rest := d.data[d.pos:]
	if len(rest) < 16 {
		var pad [16]byte
		copy(pad[:], rest)
		rest = pad[:]
	}
	if !l.prefixes(rest) {
		return false
	}
	d.pos += l.n
	return true
}

func (d *Decoder) push() error {
	d.depth++
	if d.depth > maxDecodeDepth {
		return d.errf("exceeded max depth")
	}
	return nil
}

// endMember consumes the separator after an object member or array element:
// a comma (more members follow) or the closing delimiter.
func (d *Decoder) endMember(close byte) (more bool, err error) {
	d.skipWS()
	c, ok := d.peek()
	if !ok {
		return false, d.errf("unexpected end of input")
	}
	switch c {
	case ',':
		d.pos++
		return true, nil
	case close:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.errf("invalid character %q after value", c)
}

// scanKey parses an object key and the following colon, leaving the cursor
// at the first byte of the value.
func (d *Decoder) scanKey() ([]byte, error) {
	d.skipWS()
	c, ok := d.peek()
	if !ok {
		return nil, d.errf("unexpected end of input")
	}
	if c != '"' {
		return nil, d.errf("invalid character %q looking for object key", c)
	}
	ref, err := d.scanString()
	if err != nil {
		return nil, err
	}
	d.skipWS()
	if c, ok := d.peek(); !ok || c != ':' {
		return nil, d.errf("invalid character after object key")
	}
	d.pos++
	d.skipWS()
	return d.refBytes(ref), nil
}

func (d *Decoder) refBytes(ref strRef) []byte {
	if ref.buf {
		return d.buf[ref.off : ref.off+ref.n]
	}
	return d.data[ref.off : ref.off+ref.n]
}

// ── strings ─────────────────────────────────────────────────────────────

// scanString parses a JSON string starting at the opening quote. Clean
// strings return a zero-copy window into the line; escape-bearing strings
// route through the slow-path unescape into the decoder's buffer.
func (d *Decoder) scanString() (strRef, error) {
	d.pos++ // opening quote
	data := d.data
	start := d.pos
	i := start
	// Word-at-a-time scan: skip 8 clean bytes per iteration, dropping to
	// the byte loop at the first quote, backslash or control character.
	for i+8 <= len(data) {
		w := binary.LittleEndian.Uint64(data[i:])
		if m := stringSpecials(w); m != 0 {
			i += bits.TrailingZeros64(m) >> 3
			break
		}
		i += 8
	}
	for ; i < len(data); i++ {
		c := data[i]
		if c == '"' {
			d.pos = i + 1
			return strRef{off: int32(start), n: int32(i - start)}, nil
		}
		if c == '\\' {
			return d.scanStringSlow(start, i)
		}
		if c < 0x20 {
			d.pos = i
			return strRef{}, d.errf("invalid control character in string")
		}
	}
	d.pos = len(data)
	return strRef{}, d.errf("unterminated string")
}

const (
	swarLSB = 0x0101010101010101
	swarMSB = 0x8080808080808080
)

// stringSpecials returns a mask with the high bit set in every byte of w
// that is a quote, a backslash, or a control character (< 0x20).
func stringSpecials(w uint64) uint64 {
	q := w ^ (swarLSB * '"')
	s := w ^ (swarLSB * '\\')
	return ((q - swarLSB) &^ q & swarMSB) |
		((s - swarLSB) &^ s & swarMSB) |
		((w - swarLSB*0x20) &^ w & swarMSB)
}

// scanStringSlow unescapes a string into the decoder's buffer, mirroring
// encoding/json: standard escapes, \uXXXX with UTF-16 surrogate pairing,
// lone surrogates become U+FFFD, raw invalid UTF-8 is copied through (the
// caller sanitizes strings whose decoded value matters).
func (d *Decoder) scanStringSlow(start, i int) (strRef, error) {
	data := d.data
	off := int32(len(d.buf))
	d.buf = append(d.buf, data[start:i]...)
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return strRef{off: off, n: int32(len(d.buf)) - off, buf: true}, nil
		case c < 0x20:
			d.pos = i
			return strRef{}, d.errf("invalid control character in string")
		case c != '\\':
			d.buf = append(d.buf, c)
			i++
		default:
			i++
			if i >= len(data) {
				d.pos = i
				return strRef{}, d.errf("unterminated string escape")
			}
			switch data[i] {
			case '"', '\\', '/':
				d.buf = append(d.buf, data[i])
				i++
			case 'b':
				d.buf = append(d.buf, '\b')
				i++
			case 'f':
				d.buf = append(d.buf, '\f')
				i++
			case 'n':
				d.buf = append(d.buf, '\n')
				i++
			case 'r':
				d.buf = append(d.buf, '\r')
				i++
			case 't':
				d.buf = append(d.buf, '\t')
				i++
			case 'u':
				rr := getu4(data[i-1:])
				if rr < 0 {
					d.pos = i
					return strRef{}, d.errf("invalid \\u escape")
				}
				i += 5
				if utf16.IsSurrogate(rr) {
					rr1 := getu4(data[i:])
					if dec := utf16.DecodeRune(rr, rr1); dec != utf8.RuneError {
						i += 6
						d.buf = utf8.AppendRune(d.buf, dec)
						break
					}
					rr = utf8.RuneError
				}
				d.buf = utf8.AppendRune(d.buf, rr)
			default:
				d.pos = i
				return strRef{}, d.errf("invalid escape character %q", data[i])
			}
		}
	}
	d.pos = len(data)
	return strRef{}, d.errf("unterminated string")
}

// getu4 decodes \uXXXX from the start of s, returning -1 on malformation —
// the same contract as encoding/json's helper.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// sanitize replaces invalid UTF-8 sequences with U+FFFD, exactly as
// encoding/json does while decoding strings.
func (d *Decoder) sanitize(b []byte) []byte {
	off := len(d.buf)
	for i := 0; i < len(b); {
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size <= 1 {
			d.buf = utf8.AppendRune(d.buf, utf8.RuneError)
			i++
			continue
		}
		d.buf = append(d.buf, b[i:i+size]...)
		i += size
	}
	return d.buf[off:]
}

// ── numbers ─────────────────────────────────────────────────────────────

type number struct {
	neg       bool
	mant      uint64
	sig       int
	exp10     int
	truncated bool
	hasFrac   bool
	hasExp    bool
	tok       []byte
}

// scanNumber validates JSON number grammar while accumulating a decimal
// mantissa and exponent for the fast conversion paths.
func (d *Decoder) scanNumber() (number, error) {
	var n number
	data := d.data
	start := d.pos
	i := d.pos
	if i < len(data) && data[i] == '-' {
		n.neg = true
		i++
	}
	if i >= len(data) || data[i] < '0' || data[i] > '9' {
		d.pos = i
		return n, d.errf("invalid number")
	}
	if data[i] == '0' {
		i++
	} else {
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			if n.sig < 19 {
				n.mant = n.mant*10 + uint64(data[i]-'0')
				n.sig++
			} else {
				n.truncated = true
				n.exp10++
			}
			i++
		}
	}
	if i < len(data) && data[i] == '.' {
		n.hasFrac = true
		i++
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.pos = i
			return n, d.errf("invalid number: no digits after decimal point")
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			switch {
			case n.sig == 0 && data[i] == '0':
				n.exp10-- // leading zeros of a sub-1 number
			case n.sig < 19:
				n.mant = n.mant*10 + uint64(data[i]-'0')
				n.sig++
				n.exp10--
			default:
				n.truncated = true
			}
			i++
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		n.hasExp = true
		i++
		esign := 1
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			if data[i] == '-' {
				esign = -1
			}
			i++
		}
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.pos = i
			return n, d.errf("invalid number: no exponent digits")
		}
		e := 0
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			if e < 1<<28 {
				e = e*10 + int(data[i]-'0')
			}
			i++
		}
		n.exp10 += esign * e
	}
	n.tok = data[start:i]
	d.pos = i
	return n, nil
}

// toInt converts per strconv.ParseInt semantics on the token: integer
// grammar only, int64 range — anything else is the oracle's reject.
func (n *number) toInt() (int64, bool) {
	if n.hasFrac || n.hasExp || n.truncated || n.sig > 19 {
		return 0, false
	}
	if n.neg {
		if n.mant > 1<<63 {
			return 0, false
		}
		return -int64(n.mant), true
	}
	if n.mant > 1<<63-1 {
		return 0, false
	}
	return int64(n.mant), true
}

// pow10tab holds the exactly-representable powers of ten.
var pow10tab = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// toFloat converts with the classic exact fast path (mantissa ≤ 15 digits,
// |decimal exponent| ≤ 22: one multiply or divide is correctly rounded),
// then the Eisel–Lemire wide multiply for untruncated mantissas (16–19
// digits — full-precision 'g'-format floats land here); whatever neither
// can prove correctly rounded falls back to strconv.ParseFloat, the
// oracle's own conversion, so results are bit-identical on every path.
func (n *number) toFloat() (float64, bool) {
	if !n.truncated && n.sig <= 15 && n.exp10 >= -22 && n.exp10 <= 22 {
		f := float64(n.mant)
		switch {
		case n.exp10 > 0:
			f *= pow10tab[n.exp10]
		case n.exp10 < 0:
			f /= pow10tab[-n.exp10]
		}
		if n.neg {
			f = -f
		}
		return f, true
	}
	if !n.truncated {
		if f, ok := eiselLemire64(n.mant, n.exp10, n.neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(n.tok), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// ── field parsers ───────────────────────────────────────────────────────

// int64Field parses a strict-integer JSON number into p; null is a no-op
// (encoding/json leaves the previous value), anything else rejects.
func (d *Decoder) int64Field(p *int64, key string) error {
	// Fast path: a plain run of up to 19 digits with no fraction, exponent
	// or leading zero — every integer field a real dump carries.
	data := d.data
	i := d.pos
	neg := false
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	digs := i
	var mant uint64
	for i < len(data) && data[i] >= '0' && data[i] <= '9' && i-digs < 19 {
		mant = mant*10 + uint64(data[i]-'0')
		i++
	}
	if i > digs && (data[digs] != '0' || i == digs+1) &&
		(i == len(data) || (data[i] != '.' && data[i] != 'e' && data[i] != 'E' && (data[i] < '0' || data[i] > '9'))) {
		if neg {
			if mant > 1<<63 {
				return d.errf("number %s does not fit integer field %s", data[d.pos:i], key)
			}
			*p = -int64(mant)
		} else {
			if mant > 1<<63-1 {
				return d.errf("number %s does not fit integer field %s", data[d.pos:i], key)
			}
			*p = int64(mant)
		}
		d.pos = i
		return nil
	}

	c, ok := d.peek()
	if !ok {
		return d.errf("unexpected end of input")
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.errf("cannot decode %q into integer field %s", c, key)
	}
	n, err := d.scanNumber()
	if err != nil {
		return err
	}
	v, ok := n.toInt()
	if !ok {
		return d.errf("number %s does not fit integer field %s", n.tok, key)
	}
	*p = v
	return nil
}

func (d *Decoder) intField(p *int, key string) error {
	v := int64(*p)
	if err := d.int64Field(&v, key); err != nil {
		return err
	}
	*p = int(v)
	return nil
}

// strField parses a JSON string into ref; null is a no-op.
func (d *Decoder) strField(ref *strRef, key string) error {
	c, ok := d.peek()
	if !ok {
		return d.errf("unexpected end of input")
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '"' {
		return d.errf("cannot decode %q into string field %s", c, key)
	}
	r, err := d.scanString()
	if err != nil {
		return err
	}
	*ref = r
	return nil
}

// resolveAddr turns a decoded string into a netip.Addr, sanitizing invalid
// UTF-8 first (the oracle decodes through a Go string, which replaces
// invalid sequences with U+FFFD). Dotted-quad addresses (the vast majority
// of Atlas traffic) parse inline for less than a map probe costs; anything
// else — IPv6, zones, malformed text — goes through the raw-bytes memo and
// the full parser.
func (d *Decoder) resolveAddr(ref strRef, field string) (netip.Addr, error) {
	b := d.refBytes(ref)
	if v, ok := ParseV4(b); ok {
		return addrV4(v), nil
	}
	if !utf8.Valid(b) {
		b = d.sanitize(b)
	}
	if a, ok := d.addrs[string(b)]; ok {
		return a, nil
	}
	a, err := netip.ParseAddr(string(b))
	if err != nil {
		return netip.Addr{}, &AddrError{Field: field, Value: string(b), Err: err}
	}
	if len(d.addrs) < maxAddrCache {
		d.addrs[string(b)] = a
	}
	return a, nil
}

// internAddr is resolveAddr for DecodeView: wire text to id through
// in.AddrText, with the same sanitization and AddrError. A repeat of the
// text interned just before on this line keeps its id.
func (d *Decoder) internAddr(ref strRef, field string, in AddrInterner) (uint32, error) {
	b := d.refBytes(ref)
	if len(d.prevText) > 0 && bytes.Equal(b, d.prevText) {
		return d.prevID, nil
	}
	raw := b
	if !utf8.Valid(b) {
		b = d.sanitize(b)
	}
	id, err := in.AddrText(b)
	if err != nil {
		return 0, &AddrError{Field: field, Value: string(b), Err: err}
	}
	d.prevText, d.prevID = raw, id
	return id, nil
}

func addrV4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// ParseV4 parses a dotted-quad IPv4 address into its big-endian value, with
// netip.ParseAddr's exact grammar (see quad). ok=false means "not a clean
// dotted quad" — the caller falls back to the full parser, which produces
// the canonical error.
func ParseV4(b []byte) (v uint32, ok bool) {
	v, n, ok := quad(b)
	return v, ok && n == len(b)
}

// quad parses the dotted-quad IPv4 address b starts with into its
// big-endian value and its length in bytes: four decimal octets, one to
// three digits, no leading zeros, each at most 255 — netip.ParseAddr's
// grammar. It is the decoder's one quad grammar: ParseV4 requires the
// quad to be all of b, the scan requires a closing quote right after it.
func quad(b []byte) (v uint32, n int, ok bool) {
	i := 0
	for f := 0; ; f++ {
		// An octet: a digit, then up to two more unless the first is 0.
		if i >= len(b) || b[i]-'0' > 9 {
			return 0, 0, false
		}
		o := uint32(b[i] - '0')
		i++
		if i < len(b) && b[i]-'0' <= 9 {
			if o == 0 {
				return 0, 0, false
			}
			o = o*10 + uint32(b[i]-'0')
			i++
			if i < len(b) && b[i]-'0' <= 9 {
				o = o*10 + uint32(b[i]-'0')
				i++
			}
		}
		if o > 255 {
			return 0, 0, false
		}
		v = v<<8 | o
		if f == 3 {
			return v, i, true
		}
		if i >= len(b) || b[i] != '.' {
			return 0, 0, false
		}
		i++
	}
}

// ── objects ─────────────────────────────────────────────────────────────

var (
	topKeys   = [][]byte{[]byte("msm_id"), []byte("prb_id"), []byte("timestamp"), []byte("src_addr"), []byte("dst_addr"), []byte("paris_id"), []byte("result")}
	hopKeys   = [][]byte{[]byte("hop"), []byte("result")}
	replyKeys = [][]byte{[]byte("from"), []byte("rtt"), []byte("x"), []byte("ttl"), []byte("size"), []byte("late"), []byte("err")}
)

// foldIndex is the index of the first of known that key equals under
// Unicode simple case folding — how encoding/json matches a key no field
// name equals exactly — or -1 for an unknown key, whose value is skipped
// structurally. topKeyIndex, hopKeyIndex and replyKeyIndex try the exact
// names first, in a switch on string(key) (the compiler elides that
// conversion), and fall back to foldIndex.
func foldIndex(key []byte, known [][]byte) int {
	for i, k := range known {
		if bytes.EqualFold(key, k) {
			return i
		}
	}
	return -1
}

func topKeyIndex(key []byte) int {
	switch string(key) {
	case "msm_id":
		return 0
	case "prb_id":
		return 1
	case "timestamp":
		return 2
	case "src_addr":
		return 3
	case "dst_addr":
		return 4
	case "paris_id":
		return 5
	case "result":
		return 6
	}
	return foldIndex(key, topKeys)
}

func hopKeyIndex(key []byte) int {
	switch string(key) {
	case "hop":
		return 0
	case "result":
		return 1
	}
	return foldIndex(key, hopKeys)
}

func replyKeyIndex(key []byte) int {
	switch string(key) {
	case "from":
		return 0
	case "rtt":
		return 1
	case "x":
		return 2
	case "ttl":
		return 3
	case "size":
		return 4
	case "late":
		return 5
	case "err":
		return 6
	}
	return foldIndex(key, replyKeys)
}

// fastTop attempts the full canonical top-level shape — every field in
// encoder order, fused into literal matches with no per-member dispatch.
// Once the hop array has begun parsing the shape is committed: failures
// from there are the same failures the generic parser would produce and
// propagate as handled=true. Earlier mismatches rewind (the scratch
// buffers are empty at entry, so resetting them is exact) and report
// handled=false, leaving parseTop to do the generic walk.
func (d *Decoder) fastTop(t *topFields) (handled bool, err error) {
	start := d.pos
	ok := d.match(&msmIDLit) &&
		d.intField(&t.msmID, "msm_id") == nil &&
		d.match(&prbIDLit) &&
		d.intField(&t.prbID, "prb_id") == nil &&
		d.match(&timestampLit) &&
		d.int64Field(&t.timestamp, "timestamp") == nil &&
		d.match(&srcAddrLit) &&
		d.strField(&t.src, "src_addr") == nil &&
		d.match(&dstAddrLit) &&
		d.strField(&t.dst, "dst_addr") == nil &&
		d.match(&parisIDLit) &&
		d.intField(&t.parisID, "paris_id") == nil &&
		d.match(&resultLit)
	if !ok {
		d.pos = start
		return false, nil
	}
	// The consumed '{' counts one nesting level, exactly like parseTop's
	// push, so the depth limit trips on the same inputs as the oracle
	// (Decode calls fastTop at depth 0, so the limit cannot trip here).
	d.depth++
	d.skipWS()
	if err := d.parseHops(); err != nil {
		return true, err
	}
	if !d.match(&closeLit) {
		// Extra members after the hop array: rewind and drop everything
		// the array parse appended.
		d.hops = d.hops[:0]
		d.rtts = d.rtts[:0]
		d.pend = d.pend[:0]
		d.depth--
		d.pos = start
		return false, nil
	}
	d.depth--
	return true, nil
}

func (d *Decoder) parseTop(t *topFields) error {
	d.pos++ // '{'
	if err := d.push(); err != nil {
		return err
	}
	d.skipWS()
	if c, ok := d.peek(); ok && c == '}' {
		d.pos++
		d.depth--
		return nil
	}
	seenHops := false
	next := 0
	for {
		// Canonical-order probe: our own encoder (and real Atlas dumps)
		// write keys in a fixed order, so one match of `"key":` replaces
		// the generic string scan plus dispatch. Any miss — reordered,
		// escaped or unknown keys — falls back to scanKey (which skips
		// whitespace itself, so the probe needs none on the hot path).
		ki := -1
		for j := next; j < len(topCanon); j++ {
			if d.match(&topCanon[j]) {
				ki, next = j, j+1
				d.skipWS()
				break
			}
		}
		if ki < 0 {
			key, err := d.scanKey()
			if err != nil {
				return err
			}
			ki = topKeyIndex(key)
			if ki >= next {
				next = ki + 1
			}
		}
		var err error
		switch ki {
		case 0:
			err = d.intField(&t.msmID, "msm_id")
		case 1:
			err = d.intField(&t.prbID, "prb_id")
		case 2:
			err = d.int64Field(&t.timestamp, "timestamp")
		case 3:
			err = d.strField(&t.src, "src_addr")
		case 4:
			err = d.strField(&t.dst, "dst_addr")
		case 5:
			err = d.intField(&t.parisID, "paris_id")
		case 6:
			if seenHops {
				return errFallback
			}
			seenHops = true
			err = d.parseHops()
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
		more, err := d.endMember('}')
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// fastHop attempts the canonical hop shape {"hop":N,"result":[…]}. It
// reports handled=true once the shape is committed (the replies array has
// begun parsing): from then on any failure is the same failure the generic
// parser would produce, so it propagates rather than rewinds. Earlier
// mismatches rewind — including truncating reply scratch — and report
// handled=false.
func (d *Decoder) fastHop() (handled bool, err error) {
	start := d.pos
	if !d.match(&hopLit) {
		return false, nil
	}
	hr := ViewHop{Start: int32(len(d.rtts))}
	pendLen := len(d.pend)
	if d.intField(&hr.TTL, "hop") != nil {
		d.pos = start
		return false, nil
	}
	if !d.match(&resultLit) {
		d.pos = start
		return false, nil
	}
	// The consumed '{' counts one nesting level, mirroring parseHop's
	// push; at the limit, rewind so the generic path reports the oracle's
	// depth error.
	if d.depth >= maxDecodeDepth {
		d.pos = start
		return false, nil
	}
	d.depth++
	d.skipWS()
	if err := d.parseReplies(&hr); err != nil {
		return true, err
	}
	if !d.match(&closeLit) {
		// Extra or reordered members after the replies array: rewind,
		// dropping whatever parseReplies appended to the scratch buffers.
		d.rtts = d.rtts[:hr.Start]
		d.pend = d.pend[:pendLen]
		d.depth--
		d.pos = start
		return false, nil
	}
	d.depth--
	hr.End = int32(len(d.rtts))
	d.hops = append(d.hops, hr)
	return true, nil
}

// parseHops parses the top-level "result" array (called at most once per
// line — duplicates take the fallback path).
func (d *Decoder) parseHops() error {
	c, ok := d.peek()
	if !ok {
		return d.errf("unexpected end of input")
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '[' {
		return d.errf("cannot decode %q into the hop array", c)
	}
	d.pos++
	if err := d.push(); err != nil {
		return err
	}
	d.skipWS()
	if c, ok := d.peek(); ok && c == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		// Whole-shape probe for the canonical hop form
		// {"hop":N,"result":[…]}; a miss rewinds to the generic parser.
		if ok, err := d.fastHop(); ok {
			if err != nil {
				return err
			}
			more, err := d.endMember(']')
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
			continue
		}
		d.skipWS()
		c, ok := d.peek()
		if !ok {
			return d.errf("unexpected end of input")
		}
		var err error
		switch c {
		case '{':
			err = d.parseHop()
		case 'n':
			// null hop element: a zero hop with no replies.
			if err = d.literal("null"); err == nil {
				end := int32(len(d.rtts))
				d.hops = append(d.hops, ViewHop{Start: end, End: end})
			}
		default:
			err = d.errf("cannot decode %q into a hop object", c)
		}
		if err != nil {
			return err
		}
		more, err := d.endMember(']')
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

func (d *Decoder) parseHop() error {
	d.pos++ // '{'
	if err := d.push(); err != nil {
		return err
	}
	hr := ViewHop{Start: int32(len(d.rtts))}
	d.skipWS()
	if c, ok := d.peek(); ok && c == '}' {
		d.pos++
		d.depth--
		hr.End = int32(len(d.rtts))
		d.hops = append(d.hops, hr)
		return nil
	}
	seenReplies := false
	next := 0
	for {
		ki := -1
		for j := next; j < len(hopCanon); j++ {
			if d.match(&hopCanon[j]) {
				ki, next = j, j+1
				d.skipWS()
				break
			}
		}
		if ki < 0 {
			key, err := d.scanKey()
			if err != nil {
				return err
			}
			ki = hopKeyIndex(key)
			if ki >= next {
				next = ki + 1
			}
		}
		var err error
		switch ki {
		case 0:
			err = d.intField(&hr.TTL, "hop")
		case 1:
			if seenReplies {
				return errFallback
			}
			seenReplies = true
			err = d.parseReplies(&hr)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
		more, err := d.endMember('}')
		if err != nil {
			return err
		}
		if !more {
			hr.End = int32(len(d.rtts))
			d.hops = append(d.hops, hr)
			return nil
		}
	}
}

// fastReply attempts the two canonical reply shapes — {"from":"…","rtt":N}
// and {"x":"*"} — consuming the whole object on success. A "from" that is
// a clean dotted quad followed by its closing quote is parsed in the same
// pass (fromQuad); any other text is scanned as a string for post-scan
// parsing. On any mismatch it rewinds and reports false, leaving the
// generic member loop to parse (or reject) the element with identical
// semantics.
func (d *Decoder) fastReply() bool {
	// The reply object is one nesting level; its canonical shapes hold no
	// nested values, so the level is only observable at the depth limit —
	// rewind there and let the generic path report the oracle's error.
	if d.depth >= maxDecodeDepth {
		return false
	}
	start := d.pos
	if d.match(&timeoutLit) {
		d.rtts = append(d.rtts, 0)
		return true
	}
	if !d.match(&fromLit) {
		return false
	}
	p := pendAddr{reply: int32(len(d.rtts))}
	p.v, p.quad = d.fromQuad()
	if !p.quad {
		d.pos-- // scanString expects the cursor on the opening quote
		var err error
		if p.ref, err = d.scanString(); err != nil {
			d.pos = start
			return false
		}
	}
	if !d.match(&rttLit) {
		d.pos = start
		return false
	}
	var rtt float64
	var hasRTT bool
	if d.rttField(&rtt, &hasRTT) != nil {
		d.pos = start
		return false
	}
	if !d.match(&closeLit) {
		d.pos = start
		return false
	}
	// parseReply's finish() semantics with no x, err or extra members seen.
	if (!p.quad && p.ref.n == 0) || !hasRTT || rtt < 0 {
		d.rtts = append(d.rtts, 0)
		return true
	}
	d.pend = append(d.pend, p)
	d.rtts = append(d.rtts, rtt)
	return true
}

// fromQuad consumes a dotted-quad "from" text and its closing quote at the
// cursor, returning the quad's value. A text whose bytes and quote repeat
// the last quad's reuses its value. ok=false leaves the cursor where it
// was: the text is not a clean quad ending in a quote, or the line has
// fewer than 16 bytes left.
func (d *Decoder) fromQuad() (v uint32, ok bool) {
	rest := d.data[d.pos:]
	if len(rest) < 16 {
		return 0, false
	}
	if d.quadText.n != 0 && d.quadText.prefixes(rest) {
		d.pos += d.quadText.n
		return d.quadV, true
	}
	v, n, ok := quad(rest)
	if !ok || rest[n] != '"' { // a quad is at most 15 bytes
		return 0, false
	}
	d.quadText, d.quadV = litOf(rest, n+1), v
	d.pos += n + 1
	return v, true
}

// parseReplies parses one hop's "result" array (parseHop guarantees it is
// called at most once per hop — duplicates take the fallback path).
func (d *Decoder) parseReplies(hr *ViewHop) error {
	c, ok := d.peek()
	if !ok {
		return d.errf("unexpected end of input")
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '[' {
		return d.errf("cannot decode %q into a reply array", c)
	}
	d.pos++
	if err := d.push(); err != nil {
		return err
	}
	d.skipWS()
	if c, ok := d.peek(); ok && c == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		// Whole-shape probes for the two canonical reply forms. A matched
		// shape skips the generic member loop entirely; any miss rewinds
		// and re-parses generically, so semantics are unchanged.
		if d.fastReply() {
			more, err := d.endMember(']')
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
			continue
		}
		d.skipWS()
		c, ok := d.peek()
		if !ok {
			return d.errf("unexpected end of input")
		}
		var err error
		switch c {
		case '{':
			err = d.parseReply()
		case 'n':
			// null reply element: the zero reply, which degrades to a
			// timeout (no address, no RTT).
			if err = d.literal("null"); err == nil {
				d.rtts = append(d.rtts, 0)
			}
		default:
			err = d.errf("cannot decode %q into a reply object", c)
		}
		if err != nil {
			return err
		}
		more, err := d.endMember(']')
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

func (d *Decoder) parseReply() error {
	d.pos++ // '{'
	if err := d.push(); err != nil {
		return err
	}
	var (
		from     strRef
		rtt      float64
		hasRTT   bool
		xPresent bool
		errSeen  bool
		scratch  int
	)
	finish := func() {
		// The per-reply leniency rules of the reference decoder: a
		// timeout marker, an error entry, a missing address, a missing
		// RTT (late packets, ICMP errors) or a negative-RTT clock
		// artifact all degrade to a timeout rather than rejecting.
		if xPresent || errSeen || from.n == 0 || !hasRTT || rtt < 0 {
			d.rtts = append(d.rtts, 0)
			return
		}
		d.pend = append(d.pend, pendAddr{reply: int32(len(d.rtts)), ref: from})
		d.rtts = append(d.rtts, rtt)
	}
	d.skipWS()
	if c, ok := d.peek(); ok && c == '}' {
		d.pos++
		d.depth--
		finish()
		return nil
	}
	next := 0
	for {
		ki := -1
		for j := next; j < len(replyCanon); j++ {
			if d.match(&replyCanon[j]) {
				ki, next = j, j+1
				d.skipWS()
				break
			}
		}
		if ki < 0 {
			key, err := d.scanKey()
			if err != nil {
				return err
			}
			ki = replyKeyIndex(key)
			if ki >= next {
				next = ki + 1
			}
		}
		var err error
		switch ki {
		case 0:
			err = d.strField(&from, "from")
		case 1:
			err = d.rttField(&rtt, &hasRTT)
		case 2:
			var x strRef
			x.n = -1 // sentinel: distinguish "null no-op" from "set to empty"
			if err = d.strField(&x, "x"); err == nil && x.n >= 0 {
				xPresent = x.n > 0
			}
		case 3:
			err = d.intField(&scratch, "ttl")
		case 4:
			err = d.intField(&scratch, "size")
		case 5:
			err = d.skipValue()
		case 6:
			// Any err value — even null — makes the raw message non-empty,
			// so the reply degrades to a timeout.
			errSeen = true
			err = d.skipValue()
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
		more, err := d.endMember('}')
		if err != nil {
			return err
		}
		if !more {
			finish()
			return nil
		}
	}
}

// rttField parses the rtt value: a JSON number per ParseFloat, or null,
// which clears the field (the oracle's *float64 becomes nil).
func (d *Decoder) rttField(rtt *float64, has *bool) error {
	// Fast path: digits['.'digits] with at most 19 digits and no exponent
	// — every rtt a real dump carries. Up to 15 digits take one
	// multiply-free accumulate plus one exact pow10 divide (the Clinger
	// fast case); 16–19 digits — full-precision 'g'-formatted floats —
	// take the Eisel–Lemire wide multiply. Both round identically to
	// ParseFloat; anything either cannot prove drops to the slow path.
	data := d.data
	i := d.pos
	neg := false
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	ds := i
	var mant uint64
	nd := 0
	for i < len(data) && data[i] >= '0' && data[i] <= '9' && nd < 19 {
		mant = mant*10 + uint64(data[i]-'0')
		nd++
		i++
	}
	if intDigs := i - ds; intDigs > 0 && (data[ds] != '0' || intDigs == 1) {
		exp := 0
		if i < len(data) && data[i] == '.' {
			fs := i + 1
			i = fs
			// Full-precision RTTs carry ~14 fraction digits: take them up
			// to eight at a time (one SWAR count + evaluate per chunk),
			// bytewise only within 8 bytes of the line's end.
			for i+8 <= len(data) && nd < 19 {
				w := binary.LittleEndian.Uint64(data[i:])
				k := min(digitRun(w), 19-nd)
				if k == 0 {
					break
				}
				mant = mant*pow10u[k] + parseDigits(w, k)
				nd += k
				exp -= k
				i += k
				if k < 8 {
					break
				}
			}
			for i < len(data) && data[i] >= '0' && data[i] <= '9' && nd < 19 {
				mant = mant*10 + uint64(data[i]-'0')
				nd++
				exp--
				i++
			}
			if i == fs {
				i = fs - 1 // no fraction digits (or none within budget): slow path
			}
		}
		if i > ds && (i == len(data) ||
			(data[i] != 'e' && data[i] != 'E' && data[i] != '.' && (data[i] < '0' || data[i] > '9'))) {
			if nd <= 15 {
				f := float64(mant)
				if exp < 0 {
					f /= pow10tab[-exp]
				}
				if neg {
					f = -f
				}
				*rtt = f
				*has = true
				d.pos = i
				return nil
			}
			if f, ok := eiselLemire64(mant, exp, neg); ok {
				*rtt = f
				*has = true
				d.pos = i
				return nil
			}
			// Ambiguous rounding: d.pos untouched, rescan below.
		}
	}

	c, ok := d.peek()
	if !ok {
		return d.errf("unexpected end of input")
	}
	if c == 'n' {
		if err := d.literal("null"); err != nil {
			return err
		}
		*has = false
		return nil
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.errf("cannot decode %q into the rtt field", c)
	}
	n, err := d.scanNumber()
	if err != nil {
		return err
	}
	f, ok2 := n.toFloat()
	if !ok2 {
		return d.errf("number %s out of float range", n.tok)
	}
	*rtt, *has = f, true
	return nil
}

// ── structural skipping ─────────────────────────────────────────────────

// skipValue validates and discards one JSON value of any shape — how
// unknown fields (ttl-adjacent compat keys, future Atlas extensions) pass
// through without building anything.
func (d *Decoder) skipValue() error {
	d.skipWS()
	c, ok := d.peek()
	if !ok {
		return d.errf("unexpected end of input")
	}
	switch c {
	case '"':
		_, err := d.scanString()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	case '{':
		d.pos++
		if err := d.push(); err != nil {
			return err
		}
		d.skipWS()
		if c, ok := d.peek(); ok && c == '}' {
			d.pos++
			d.depth--
			return nil
		}
		for {
			if _, err := d.scanKey(); err != nil {
				return err
			}
			if err := d.skipValue(); err != nil {
				return err
			}
			more, err := d.endMember('}')
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
		}
	case '[':
		d.pos++
		if err := d.push(); err != nil {
			return err
		}
		d.skipWS()
		if c, ok := d.peek(); ok && c == ']' {
			d.pos++
			d.depth--
			return nil
		}
		for {
			if err := d.skipValue(); err != nil {
				return err
			}
			more, err := d.endMember(']')
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
		}
	default:
		if c == '-' || ('0' <= c && c <= '9') {
			_, err := d.scanNumber()
			return err
		}
		return d.errf("invalid character %q looking for a value", c)
	}
}
