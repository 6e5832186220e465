package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"net/netip"
	"time"
	"unicode/utf8"
)

// This file is the fast path for the Atlas NDJSON wire format: a
// single-pass byte scanner that dispatches on key bytes directly, with no
// intermediate wireResult and no reflection. It decodes or declines. A line
// it does not fully recognise goes whole to Result.UnmarshalJSON (json.go),
// the reference decoder, which therefore decides every reject and every
// rare JSON form; the fast path builds no error of its own. What it does
// accept it decodes exactly as the reference would, which
// FuzzDecodeDifferential and FuzzDecodeViewDifferential check.
//
// It recognises the canonical shape our encoder writes, whole members at a
// time (fastTop, fastHop, fastReply), and real Atlas shapes through a
// member walker: any key order, whitespace, last-wins duplicate scalar
// keys, the reply members ttl, size and err, and unknown members (late,
// fw, msm_name, icmpext, ...) skipped after a structural check. It declines
// on
//   - an escape or a control byte in any string, and invalid UTF-8 in an
//     address, which encoding/json would unescape or replace;
//   - null anywhere;
//   - an integer that is not a plain digit run or does not fit its field;
//   - an rtt that is not -?(0|[1-9][0-9]*)(.[0-9]+)? with at most 19
//     digits, or whose rounding the Clinger and Eisel–Lemire paths cannot
//     prove;
//   - a number in a skipped member with an exponent;
//   - an address that does not parse;
//   - an unknown key with an upper-case or non-ASCII byte, which
//     encoding/json might match to a known key by case folding;
//   - a second hop or reply array in one object, whose elements
//     encoding/json merges into the first's;
//   - nesting deeper than maxSkipDepth in a skipped member, and any byte
//     off this grammar.

// maxSkipDepth bounds the nesting of a skipped member's value; Atlas's
// deepest, icmpext, nests four levels.
const maxSkipDepth = 64

// maxAddrCache bounds the decoder's distinct-address memo; real dumps hold
// a few hundred thousand distinct addresses, hostile input stops inserting
// (but keeps decoding correctly) beyond the cap.
const maxAddrCache = 1 << 20

// pendAddr is a "from" address of a kept reply. A dotted quad parsed during
// the scan (quad set) carries its big-endian value v; any other text waits
// as ref, a window into the line, to be parsed once the whole line has
// scanned.
type pendAddr struct {
	reply int32
	v     uint32
	quad  bool
	ref   []byte
}

// Decoder decodes Atlas wire lines with reusable scratch state. The zero
// value is ready to use; a Decoder is NOT safe for concurrent use — create
// one per goroutine (internal/ingest gives each decode worker its own).
//
// The scan has one finisher, DecodeView: it builds a View into the caller's
// columns and allocates nothing, addresses going to ids through the
// caller's AddrInterner. A line the scan or the finisher declines goes to
// Result.UnmarshalJSON, whose error DecodeView returns.
type Decoder struct {
	data []byte
	pos  int

	hops []ViewHop  // windows into rtts
	rtts []float64  // one per reply: its RTT, 0 for a timeout
	pend []pendAddr // one per kept reply; every other reply is a timeout

	addrs map[string]netip.Addr // wire text of every non-quad address parsed (addr)

	// The last dotted-quad "from" the scan parsed: its text and closing
	// quote, and its value. A reply whose text repeats those bytes reuses
	// the value; the key is the bytes themselves, so it never goes stale.
	quadText lit16
	quadV    uint32

	prevText []byte // DecodeView: wire text of the last address interned on this line
	prevID   uint32 // and its id
}

// topFields collects the scalar fields of the top-level result object
// during the scan; addresses stay as raw text until the line has scanned.
type topFields struct {
	msmID, prbID, parisID int
	timestamp             int64
	src, dst              []byte
}

// scan runs the single-pass scanner over line, leaving the scalar fields in
// top and the hops, reply RTTs and kept replies' addresses in the decoder's
// scratch buffers. false declines the line.
func (d *Decoder) scan(line []byte, top *topFields) bool {
	d.data, d.pos = line, 0
	d.hops = d.hops[:0]
	d.rtts = d.rtts[:0]
	d.pend = d.pend[:0]
	d.skipWS()
	if !d.fastTop(top) && !d.parseTop(top) {
		return false
	}
	d.skipWS()
	return d.pos == len(d.data)
}

// Decode decodes one Atlas wire line into dst through the reference
// decoder, Result.UnmarshalJSON. It is cmd/bench's per-layer decode probe;
// production decodes with DecodeView. On error dst is untouched.
func (d *Decoder) Decode(line []byte, dst *Result) error {
	return dst.UnmarshalJSON(line)
}

// AddrInterner maps addresses to ids for DecodeView: AddrIP from a parsed
// address, and AddrV4 from a dotted quad's big-endian value, agreeing with
// AddrIP on that quad. ident.Interner is the implementation.
type AddrInterner interface {
	AddrIP(a netip.Addr) uint32
	AddrV4(v uint32) uint32
}

// DecodeView decodes one Atlas wire line into v, reusing v's columns. On
// every input it accepts or rejects as Result.UnmarshalJSON does, with that
// decoder's error, and an accepted line's view is the one View.Fill builds
// from the reference's Result with in's ids. The source address is checked,
// not interned: no detector keys on it. On error v's contents are
// unspecified.
func (d *Decoder) DecodeView(line []byte, in AddrInterner, v *View) error {
	if d.view(line, in, v) {
		return nil
	}
	var r Result
	if err := r.UnmarshalJSON(line); err != nil {
		return err
	}
	v.Fill(&r, in.AddrIP)
	return nil
}

// view is DecodeView's fast path; false declines the line.
func (d *Decoder) view(line []byte, in AddrInterner, v *View) bool {
	var top topFields
	if !d.scan(line, &top) {
		return false
	}
	if _, ok := d.addr(top.src); !ok {
		return false
	}
	d.prevText = nil
	dst, ok := d.internAddr(top.dst, in)
	if !ok {
		return false
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
			if v.From[p.reply], ok = d.internAddr(p.ref, in); !ok {
				return false
			}
			continue
		}
		if p.v != lastV || lastID == 0 {
			lastV, lastID = p.v, in.AddrV4(p.v)
		}
		v.From[p.reply] = lastID
	}
	v.Time, v.Prb, v.Dst = time.Unix(top.timestamp, 0).UTC(), top.prbID, dst
	return true
}

// ── scanner primitives ──────────────────────────────────────────────────

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

// at reports whether the byte at the cursor is c.
func (d *Decoder) at(c byte) bool { return d.pos < len(d.data) && d.data[d.pos] == c }

func (d *Decoder) literal(s string) bool {
	if len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// enter consumes the opening byte open of an array or object and the
// whitespace after it. more reports that an element or member follows; an
// empty container is consumed whole.
func (d *Decoder) enter(open, close byte) (more, ok bool) {
	if !d.at(open) {
		return false, false
	}
	d.pos++
	d.skipWS()
	if d.at(close) {
		d.pos++
		return false, true
	}
	return true, true
}

// next consumes what follows an element or member: a comma and the
// whitespace after it (more follows), or the closing byte close.
func (d *Decoder) next(close byte) (more, ok bool) {
	d.skipWS()
	switch {
	case d.at(','):
		d.pos++
		d.skipWS()
		return true, true
	case d.at(close):
		d.pos++
		return false, true
	}
	return false, false
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

// The canonical shape's literals, in the order our encoder writes them.
// The fast shapes (fastTop, fastHop, fastReply) match whole members with
// their separators.
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

// ── keys ────────────────────────────────────────────────────────────────

// keySet is the known keys of one object level, in encoder order, each
// with its `"key":` literal for the member walker's probe.
type keySet struct {
	names []string
	lits  []lit16
}

func newKeySet(names ...string) *keySet {
	ks := &keySet{names: names}
	for _, k := range names {
		ks.lits = append(ks.lits, mkLit(`"`+k+`":`))
	}
	return ks
}

// The known keys. A reply's late is not among them: any value is accepted
// and none changes the result, so it is skipped like an unknown key.
var (
	topKeys   = newKeySet("msm_id", "prb_id", "timestamp", "src_addr", "dst_addr", "paris_id", "result")
	hopKeys   = newKeySet("hop", "result")
	replyKeys = newKeySet("from", "rtt", "x", "ttl", "size", "err")
)

// member's results besides a known key's index.
const (
	skipKey = -1 // an unknown key: skip its value
	badKey  = -2 // decline the line
)

// member reads the key of the member at the cursor and the colon after it,
// leaving the cursor on the value, and returns the key's index in ks (or
// skipKey, or badKey). Our encoder and Atlas write keys in a fixed order,
// so it first probes ks's literals from *next on, one masked compare each,
// and a hit moves *next past it. An unknown key with an upper-case or
// non-ASCII byte is badKey: encoding/json matches a key no field name
// equals under Unicode case folding, and only such a key can fold to one
// of ours, which are lower-case ASCII.
func (d *Decoder) member(ks *keySet, next *int) int {
	for j := *next; j < len(ks.lits); j++ {
		if d.match(&ks.lits[j]) {
			*next = j + 1
			d.skipWS()
			return j
		}
	}
	key, ok := d.key()
	if !ok {
		return badKey
	}
	for i, k := range ks.names {
		if string(key) == k {
			*next = max(*next, i+1)
			return i
		}
	}
	for _, c := range key {
		if c-'A' < 26 || c >= utf8.RuneSelf {
			return badKey
		}
	}
	return skipKey
}

// key reads an object key and the colon after it, leaving the cursor on
// the value.
func (d *Decoder) key() ([]byte, bool) {
	key, ok := d.scanString()
	if !ok {
		return nil, false
	}
	d.skipWS()
	if !d.at(':') {
		return nil, false
	}
	d.pos++
	d.skipWS()
	return key, true
}

// ── values ──────────────────────────────────────────────────────────────

// scanString consumes the string at the cursor and returns its bytes, a
// window into the line. It declines a string with an escape or a control
// byte.
func (d *Decoder) scanString() ([]byte, bool) {
	if !d.at('"') {
		return nil, false
	}
	data := d.data
	start := d.pos + 1
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
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
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

// strField parses a string member value into p.
func (d *Decoder) strField(p *[]byte) (ok bool) {
	*p, ok = d.scanString()
	return ok
}

// digitsEnd is the index just past the digit run that starts at i.
func (d *Decoder) digitsEnd(i int) int {
	for i < len(d.data) && d.data[i]-'0' <= 9 {
		i++
	}
	return i
}

// int64Field parses an integer member value into p: -?(0|[1-9][0-9]*) of
// at most 19 digits, within int64. What follows the digits is left to the
// caller's separator check, so a fraction, an exponent, a leading zero's
// second digit or a twentieth digit declines there.
func (d *Decoder) int64Field(p *int64) bool {
	data, i := d.data, d.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for i < len(data) && data[i]-'0' <= 9 && i-start < 19 {
		u = u*10 + uint64(data[i]-'0')
		i++
		if u == 0 {
			break // a leading 0 is the whole number
		}
	}
	if i == start || u > math.MaxInt64+1 || (!neg && u > math.MaxInt64) {
		return false
	}
	v := int64(u) // -1<<63 when u is 1<<63, which neg then keeps
	if neg {
		v = -v
	}
	*p, d.pos = v, i
	return true
}

// intField is int64Field for an int field, declining a value that does
// not fit int (above 2³¹ on 32-bit platforms, where encoding/json rejects
// it).
func (d *Decoder) intField(p *int) bool {
	var v int64
	if !d.int64Field(&v) || int64(int(v)) != v {
		return false
	}
	*p = int(v)
	return true
}

// pow10tab holds the powers of ten the Clinger fast case divides by.
var pow10tab = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
}

// rttField parses the rtt member value: -?(0|[1-9][0-9]*)(.[0-9]+)? with at
// most 19 digits, every rtt a real dump carries, correctly rounded as
// strconv.ParseFloat rounds it. Up to 15 digits take one exact pow10
// divide (the Clinger fast case); 16–19 digits, full-precision
// 'g'-formatted floats, take the Eisel–Lemire wide multiply, and decline
// in the rare case it cannot prove the rounding. As in int64Field, what
// follows the number is the caller's to check.
func (d *Decoder) rttField(rtt *float64) bool {
	data, i := d.data, d.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	ds := i
	var mant uint64
	nd := 0
	for i < len(data) && data[i]-'0' <= 9 && nd < 19 {
		mant = mant*10 + uint64(data[i]-'0')
		nd++
		i++
	}
	if i == ds || (data[ds] == '0' && i > ds+1) {
		return false
	}
	exp := 0
	if i < len(data) && data[i] == '.' {
		i++
		fs := i
		// Full-precision RTTs carry ~14 fraction digits: take them up to
		// eight at a time (one SWAR count + evaluate per chunk), bytewise
		// only within 8 bytes of the line's end.
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
		for i < len(data) && data[i]-'0' <= 9 && nd < 19 {
			mant = mant*10 + uint64(data[i]-'0')
			nd++
			exp--
			i++
		}
		if i == fs {
			return false
		}
	}
	var f float64
	ok := true
	if nd > 15 {
		f, ok = eiselLemire64(mant, exp, neg)
	} else if f = float64(mant) / pow10tab[-exp]; neg {
		f = -f
	}
	*rtt, d.pos = f, i
	return ok
}

// skipValue checks and consumes the value of a member no field reads: a
// clean string, true, false, a number of rttField's grammar without its
// digit cap, or an array or object of those, at most maxSkipDepth deep.
func (d *Decoder) skipValue(depth int) bool {
	if d.pos >= len(d.data) {
		return false
	}
	switch c := d.data[d.pos]; c {
	case '"':
		_, ok := d.scanString()
		return ok
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case '[', '{':
		if depth == maxSkipDepth {
			return false
		}
		close := byte(']')
		if c == '{' {
			close = '}'
		}
		more, ok := d.enter(c, close)
		for more && ok {
			if c == '{' {
				_, ok = d.key()
			}
			if ok = ok && d.skipValue(depth+1); ok {
				more, ok = d.next(close)
			}
		}
		return ok
	}
	i := d.pos
	if d.data[i] == '-' {
		i++
	}
	j := d.digitsEnd(i)
	if j == i || (d.data[i] == '0' && j > i+1) {
		return false
	}
	if j < len(d.data) && d.data[j] == '.' {
		k := d.digitsEnd(j + 1)
		if k == j+1 {
			return false
		}
		j = k
	}
	d.pos = j
	return true
}

// ── addresses ───────────────────────────────────────────────────────────

// addr parses address text. Dotted quads (the vast majority of Atlas
// traffic) parse inline for less than a map probe costs; other text goes
// through the memo and netip.ParseAddr. It declines text that does not
// parse, and text that is not valid UTF-8, which encoding/json would have
// changed before parsing.
func (d *Decoder) addr(b []byte) (netip.Addr, bool) {
	if v, ok := ParseV4(b); ok {
		return addrV4(v), true
	}
	if a, ok := d.addrs[string(b)]; ok {
		return a, true
	}
	if !utf8.Valid(b) {
		return netip.Addr{}, false
	}
	a, err := netip.ParseAddr(string(b))
	if err != nil {
		return netip.Addr{}, false
	}
	if d.addrs == nil {
		d.addrs = make(map[string]netip.Addr)
	}
	if len(d.addrs) < maxAddrCache {
		d.addrs[string(b)] = a
	}
	return a, true
}

// internAddr is addr for DecodeView: wire text to id through addr, whose
// memo spares non-quad text a second parse, and in.AddrIP. A repeat of the
// text interned just before on this line keeps its id.
func (d *Decoder) internAddr(b []byte, in AddrInterner) (uint32, bool) {
	if len(d.prevText) > 0 && bytes.Equal(b, d.prevText) {
		return d.prevID, true
	}
	a, ok := d.addr(b)
	if !ok {
		return 0, false
	}
	d.prevText, d.prevID = b, in.AddrIP(a)
	return d.prevID, true
}

func addrV4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// ParseV4 parses a dotted-quad IPv4 address into its big-endian value, with
// netip.ParseAddr's exact grammar (see quad). ok=false means "not a clean
// dotted quad" — the caller falls back to the full parser.
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

// fastTop matches the whole canonical top-level object — every field in
// encoder order, fused into literal matches with no per-member dispatch.
// On any mismatch it rewinds (the scratch buffers are empty at entry, so
// resetting them is exact) and reports false, leaving parseTop to walk the
// object, or to decline it.
func (d *Decoder) fastTop(t *topFields) bool {
	start := d.pos
	ok := d.match(&msmIDLit) && d.intField(&t.msmID) &&
		d.match(&prbIDLit) && d.intField(&t.prbID) &&
		d.match(&timestampLit) && d.int64Field(&t.timestamp) &&
		d.match(&srcAddrLit) && d.strField(&t.src) &&
		d.match(&dstAddrLit) && d.strField(&t.dst) &&
		d.match(&parisIDLit) && d.intField(&t.parisID) &&
		d.match(&resultLit)
	if ok {
		d.skipWS()
		ok = d.parseHops() && d.match(&closeLit)
	}
	if !ok {
		*t = topFields{}
		d.hops, d.rtts, d.pend = d.hops[:0], d.rtts[:0], d.pend[:0]
		d.pos = start
	}
	return ok
}

// parseTop walks the top-level object member by member.
func (d *Decoder) parseTop(t *topFields) bool {
	seenHops, next := false, 0
	more, ok := d.enter('{', '}')
	for more && ok {
		switch d.member(topKeys, &next) {
		case 0:
			ok = d.intField(&t.msmID)
		case 1:
			ok = d.intField(&t.prbID)
		case 2:
			ok = d.int64Field(&t.timestamp)
		case 3:
			ok = d.strField(&t.src)
		case 4:
			ok = d.strField(&t.dst)
		case 5:
			ok = d.intField(&t.parisID)
		case 6:
			ok = !seenHops && d.parseHops()
			seenHops = true
		case skipKey:
			ok = d.skipValue(0)
		default:
			ok = false
		}
		if ok {
			more, ok = d.next('}')
		}
	}
	return ok
}

// parseHops parses the top-level "result" array.
func (d *Decoder) parseHops() bool {
	more, ok := d.enter('[', ']')
	for more && ok {
		if ok = d.fastHop() || d.parseHop(); ok {
			more, ok = d.next(']')
		}
	}
	return ok
}

// fastHop matches the whole canonical hop {"hop":N,"result":[…]}. On any
// mismatch it rewinds, truncating the reply scratch it appended to, and
// reports false, leaving parseHop to walk the hop, or to decline it.
func (d *Decoder) fastHop() bool {
	start, pendLen := d.pos, len(d.pend)
	hr := ViewHop{Start: int32(len(d.rtts))}
	if d.match(&hopLit) && d.intField(&hr.TTL) && d.match(&resultLit) {
		d.skipWS()
		if d.parseReplies() && d.match(&closeLit) {
			hr.End = int32(len(d.rtts))
			d.hops = append(d.hops, hr)
			return true
		}
	}
	d.rtts, d.pend, d.pos = d.rtts[:hr.Start], d.pend[:pendLen], start
	return false
}

// parseHop walks one hop object member by member.
func (d *Decoder) parseHop() bool {
	hr := ViewHop{Start: int32(len(d.rtts))}
	seenReplies, next := false, 0
	more, ok := d.enter('{', '}')
	for more && ok {
		switch d.member(hopKeys, &next) {
		case 0:
			ok = d.intField(&hr.TTL)
		case 1:
			ok = !seenReplies && d.parseReplies()
			seenReplies = true
		case skipKey:
			ok = d.skipValue(0)
		default:
			ok = false
		}
		if ok {
			more, ok = d.next('}')
		}
	}
	hr.End = int32(len(d.rtts))
	d.hops = append(d.hops, hr)
	return ok
}

// parseReplies parses one hop's "result" array.
func (d *Decoder) parseReplies() bool {
	more, ok := d.enter('[', ']')
	for more && ok {
		if ok = d.fastReply() || d.parseReply(); ok {
			more, ok = d.next(']')
		}
	}
	return ok
}

// fastReply matches the two canonical reply shapes — {"from":"…","rtt":N}
// and {"x":"*"} — consuming the whole object. A "from" that is a clean
// dotted quad followed by its closing quote is parsed in the same pass
// (fromQuad); any other text is kept for parsing after the scan. On any
// mismatch it rewinds and reports false, leaving parseReply to walk the
// reply, or to decline it.
func (d *Decoder) fastReply() bool {
	if d.match(&timeoutLit) {
		d.addReply(pendAddr{}, 0, false)
		return true
	}
	start := d.pos
	if !d.match(&fromLit) {
		return false
	}
	var p pendAddr
	var rtt float64
	ok := true
	if p.v, p.quad = d.fromQuad(); !p.quad {
		d.pos-- // back onto the opening quote
		p.ref, ok = d.scanString()
	}
	if !ok || !d.match(&rttLit) || !d.rttField(&rtt) || !d.match(&closeLit) {
		d.pos = start
		return false
	}
	d.addReply(p, rtt, (p.quad || len(p.ref) > 0) && rtt >= 0)
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

// parseReply walks one reply object member by member.
func (d *Decoder) parseReply() bool {
	var (
		from, x []byte
		rtt     float64
		hasRTT  bool
		errSeen bool
		scratch int
	)
	next := 0
	more, ok := d.enter('{', '}')
	for more && ok {
		switch d.member(replyKeys, &next) {
		case 0:
			ok = d.strField(&from)
		case 1:
			ok = d.rttField(&rtt)
			hasRTT = true
		case 2:
			ok = d.strField(&x)
		case 3, 4:
			ok = d.intField(&scratch)
		case 5:
			// Any err value makes the reference's raw message non-empty.
			errSeen = true
			ok = d.skipValue(0)
		case skipKey:
			ok = d.skipValue(0)
		default:
			ok = false
		}
		if ok {
			more, ok = d.next('}')
		}
	}
	if ok {
		// The reference decoder's per-reply leniency: a timeout marker, an
		// error entry, a missing address, a missing RTT (late packets, ICMP
		// errors) or a negative-RTT clock artifact all degrade to a timeout
		// rather than rejecting.
		d.addReply(pendAddr{ref: from}, rtt, len(x) == 0 && !errSeen && len(from) > 0 && hasRTT && rtt >= 0)
	}
	return ok
}

// addReply appends one reply: p with rtt when keep, otherwise a timeout.
func (d *Decoder) addReply(p pendAddr, rtt float64, keep bool) {
	if keep {
		p.reply = int32(len(d.rtts))
		d.pend = append(d.pend, p)
	} else {
		rtt = 0
	}
	d.rtts = append(d.rtts, rtt)
}
