package trace

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testInterner is the AddrInterner of this package's tests: one id per
// distinct address, in first-seen order from 1, so views built by two
// producers over one testInterner compare id for id.
type testInterner struct {
	ids   map[netip.Addr]uint32
	addrs []netip.Addr // addrs[id-1]
}

func newTestInterner() *testInterner { return &testInterner{ids: map[netip.Addr]uint32{}} }

func (in *testInterner) id(a netip.Addr) uint32 {
	id, ok := in.ids[a]
	if !ok {
		in.addrs = append(in.addrs, a)
		id = uint32(len(in.addrs))
		in.ids[a] = id
	}
	return id
}

func (in *testInterner) AddrIP(a netip.Addr) uint32 { return in.id(a) }

func (in *testInterner) AddrV4(v uint32) uint32 { return in.id(addrV4(v)) }

// addrOf resolves an id back to its address.
func (in *testInterner) addrOf(id uint32) netip.Addr { return in.addrs[id-1] }

// sameView reports whether two views hold the same result: equal times,
// ids and hop windows, and RTTs equal bit for bit (so -0 is not 0).
func sameView(a, b *View) bool {
	if !a.Time.Equal(b.Time) || a.Time.Location() != b.Time.Location() || a.Prb != b.Prb || a.Dst != b.Dst ||
		!slices.Equal(a.Hops, b.Hops) || !slices.Equal(a.From, b.From) || len(a.RTT) != len(b.RTT) {
		return false
	}
	for i := range a.RTT {
		if math.Float64bits(a.RTT[i]) != math.Float64bits(b.RTT[i]) {
			return false
		}
	}
	return true
}

// assertDifferential decodes line with Decoder.DecodeView and with the
// reference decoder Result.UnmarshalJSON and asserts they agree: the same
// accept or reject, the reference's error text on a reject, and on an
// accept the view View.Fill builds from the reference's Result over the
// same interner. It returns DecodeView's view and error for case-specific
// assertions, with the interner that resolves the view's ids.
func assertDifferential(t *testing.T, line string) (*View, *testInterner, error) {
	t.Helper()
	var want Result
	refErr := want.UnmarshalJSON([]byte(line))
	var d Decoder
	in := newTestInterner()
	got := new(View)
	err := d.DecodeView([]byte(line), in, got)

	if (refErr == nil) != (err == nil) || (refErr != nil && refErr.Error() != err.Error()) {
		t.Fatalf("accept/reject mismatch:\ninput: %q\nreference:  %v\nDecodeView: %v", line, refErr, err)
	}
	if refErr != nil {
		return got, in, err
	}
	var wantV View
	wantV.Fill(&want, in.id)
	if !sameView(&wantV, got) {
		t.Fatalf("views differ:\ninput: %q\nreference: %+v\nDecodeView: %+v", line, wantV, *got)
	}
	return got, in, nil
}

// TestDecodeFastArtifacts mirrors TestDecodeArtifacts for the fast path:
// every artifact line from the reference suite, plus edge territory
// decoded by both decoders and asserted equal. The member walker decodes
// out-of-order, duplicate scalar and unknown keys; escapes, surrogate
// pairs, exponent-form numbers, null, folded keys, duplicate arrays and
// truncations are lines the fast path declines to the reference decoder.
func TestDecodeFastArtifacts(t *testing.T) {
	lines := []struct {
		name string
		line string
	}{
		{"timeout marker", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"x":"*"}]}]}`},
		{"nonstandard x marker", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"x":"?"}]}]}`},
		{"missing rtt", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3"}]}]}`},
		{"late packet", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","late":2}]}]}`},
		{"err with rtt", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"err":"N - network unreachable","from":"3.3.3.3","rtt":4.5}]}]}`},
		{"negative rtt", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":-0.25}]}]}`},
		{"zero rtt kept", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":0}]}]}`},
		{"ttl and size ignored", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1.5,"ttl":63,"size":28}]}]}`},
		{"hop gap preserved", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1}]},{"hop":2,"result":[{"x":"*"},{"x":"*"},{"x":"*"}]},{"hop":5,"result":[{"from":"2.2.2.2","rtt":9}]}]}`},
		{"empty reply set", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[]}]}`},
		{"malformed src", `{"src_addr":"nope","dst_addr":"2.2.2.2","result":[]}`},
		{"malformed dst", `{"src_addr":"1.1.1.1","dst_addr":"512.0.0.1","result":[]}`},
		{"malformed from", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"bad","rtt":5}]}]}`},
		{"missing addrs", `{"msm_id":5001,"result":[]}`},
		{"null document", `null`},
		{"truncated line", `{"src_addr":"1.1.1.1","dst_addr":"2.2.`},
		{"wrong msm_id type", `{"msm_id":"not a number","src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[]}`},
		{"rtt wrong type", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":"fast"}]}]}`},

		// Fast-path-specific edge territory.
		{"escaped from", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"\u0033.3.3\u002e3","rtt":1}]}]}`},
		{"escaped zone", `{"src_addr":"fe80::1%eth0","dst_addr":"2.2.2.2","result":[]}`},
		{"surrogate pair in zone", `{"src_addr":"fe80::1%😀","dst_addr":"2.2.2.2","result":[]}`},
		{"lone surrogate in zone", `{"src_addr":"fe80::1%\uD800x","dst_addr":"2.2.2.2","result":[]}`},
		{"exponent rtt", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1.25e1}]}]}`},
		{"negative exponent rtt", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":314E-2}]}]}`},
		{"subnormal rtt", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":5e-324}]}]}`},
		{"long mantissa rtt", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":0.30000000000000004}]}]}`},
		{"rtt out of range", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1e400}]}]}`},
		{"negative zero rtt", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":-0}]}]}`},
		{"out-of-order fields", `{"result":[{"result":[{"rtt":7,"from":"3.3.3.3"}],"hop":1}],"paris_id":2,"dst_addr":"2.2.2.2","src_addr":"1.1.1.1","timestamp":1448866800,"prb_id":1,"msm_id":5}`},
		{"duplicate scalar keys last-win", `{"src_addr":"9.9.9.9","src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":3,"hop":1,"result":[{"from":"4.4.4.4","from":"3.3.3.3","rtt":9,"rtt":1}]}]}`},
		{"duplicate hop arrays merge", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1}]}],"result":[{}]}`},
		{"duplicate reply arrays merge", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1}],"result":[{}]}]}`},
		{"case-folded keys", `{"SRC_ADDR":"1.1.1.1","Dst_Addr":"2.2.2.2","Result":[{"Hop":1,"RESULT":[{"From":"3.3.3.3","RTT":1.5}]}]}`},
		{"null fields are no-ops", `{"src_addr":"1.1.1.1","src_addr":null,"dst_addr":"2.2.2.2","paris_id":null,"result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1,"rtt":null}]}]}`},
		{"null hop and reply elements", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[null,{"hop":1,"result":[null,{"from":"3.3.3.3","rtt":1}]}]}`},
		{"null result array", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":null}`},
		{"unknown fields skipped", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","af":4,"proto":"ICMP","nested":{"deep":[1,{"x":[true,false,null]}]},"result":[{"hop":1,"icmpext":{"obj":[]},"result":[{"from":"3.3.3.3","rtt":1,"flags":[1,2]}]}]}`},
		{"min int64 timestamp", `{"timestamp":-9223372036854775808,"src_addr":"::","dst_addr":"0.0.0.0","result":[]}`},
		{"timestamp overflow", `{"timestamp":9223372036854775808,"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[]}`},
		{"float into int field", `{"msm_id":1.5,"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[]}`},
		{"exponent into int field", `{"msm_id":1e2,"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[]}`},
		{"leading zero number", `{"msm_id":01,"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[]}`},
		{"bare minus", `{"msm_id":-,"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[]}`},
		{"trailing garbage", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[]} x`},
		{"trailing whitespace ok", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[]}` + "\n \t"},
		{"empty input", ``},
		{"whitespace only", ` `},
		{"top-level array", `[1,2]`},
		{"top-level string", `"hi"`},
		{"invalid escape", `{"src_addr":"\q","dst_addr":"2.2.2.2","result":[]}`},
		{"control char in string", "{\"src_addr\":\"\x01\",\"dst_addr\":\"2.2.2.2\",\"result\":[]}"},
		{"invalid utf8 in zone", "{\"src_addr\":\"fe80::1%\xff\",\"dst_addr\":\"2.2.2.2\",\"result\":[]}"},
		{"x null keeps earlier marker", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1,"x":"*","x":null}]}]}`},
		{"x emptied un-times-out", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1,"x":"*","x":""}]}]}`},
		{"err null still degrades", `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1,"err":null}]}]}`},

		// Regression: whitespace after the canonical `"result":` keys must
		// not derail the committed fast shapes — the probes skip it exactly
		// like the generic parser.
		{"space after top result", `{"msm_id":1,"prb_id":2,"timestamp":3,"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","paris_id":4,"result": []}`},
		{"space after hop result", `{"msm_id":1,"prb_id":2,"timestamp":3,"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","paris_id":4,"result":[{"hop":1,"result": [{"from":"3.3.3.3","rtt":1},{"x":"*"}]}]}`},
		{"newline after hop result", "{\"msm_id\":1,\"prb_id\":2,\"timestamp\":3,\"src_addr\":\"1.1.1.1\",\"dst_addr\":\"2.2.2.2\",\"paris_id\":4,\"result\":[{\"hop\":1,\"result\":\n\t[{\"x\":\"*\"}]}]}"},
	}
	// The 10000-level nesting limit is the reference decoder's: the fast
	// path declines a skipped member nested past maxSkipDepth. The deep
	// array sits 5 levels in (top object, hop array, hop object, reply
	// array, reply object): 9995 arrays touch the limit exactly, 9996
	// exceed it.
	for _, n := range []int{9995, 9996} {
		lines = append(lines, struct {
			name string
			line string
		}{
			fmt.Sprintf("depth boundary %d", n),
			`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1,"zz":` +
				strings.Repeat("[", n) + strings.Repeat("]", n) + `}]}]}`,
		})
	}
	for _, tc := range lines {
		t.Run(tc.name, func(t *testing.T) {
			assertDifferential(t, tc.line)
		})
	}
}

// TestDecodeFastValues pins a few absolute outcomes (beyond agreement with
// the reference) so a bug shared by both decoders cannot hide.
func TestDecodeFastValues(t *testing.T) {
	v, in, err := assertDifferential(t, `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":314E-2}]}]}`)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if in.addrOf(v.From[0]) != netip.MustParseAddr("3.3.3.3") || v.RTT[0] != 3.14 {
		t.Fatalf("reply = %v at %v, want from 3.3.3.3 rtt 3.14", in.addrOf(v.From[0]), v.RTT[0])
	}
	if v.Time.Unix() != 0 || v.Time.Location() != v.Time.UTC().Location() {
		t.Fatalf("time = %v, want Unix 0 UTC", v.Time)
	}

	v, in, err = assertDifferential(t, `{"src_addr":"1.1.1.1","dst_addr":"fe80::1%😀","result":[]}`)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if z := in.addrOf(v.Dst).Zone(); z != "😀" {
		t.Fatalf("zone = %q, want the four-byte rune kept", z)
	}
}

// TestQuadGrammar pins the one dotted-quad grammar to netip.ParseAddr: over
// random near-quads — three to five runs of zero to four digits, mostly
// dot-separated, sometimes with a trailing byte — ParseV4 accepts exactly
// what netip.ParseAddr parses, with the same value, and quad's prefix is
// the quad ParseV4 reads on its own.
func TestQuadGrammar(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	b := make([]byte, 0, 32)
	quads, prefixes := 0, 0
	for n := 0; n < 1_000_000; n++ {
		b = b[:0]
		for f := 3 + rng.IntN(3); f > 0; f-- {
			for k := rng.IntN(5); k > 0; k-- {
				b = append(b, '0'+byte(rng.IntN(10)))
			}
			if f > 1 {
				b = append(b, "..........x"[rng.IntN(11)])
			}
		}
		if rng.IntN(2) == 0 {
			b = append(b, "\" .0x"[rng.IntN(5)])
		}
		v, ok := ParseV4(b)
		a, err := netip.ParseAddr(string(b))
		if ok != (err == nil) || (ok && addrV4(v) != a) {
			t.Fatalf("ParseV4(%q) = %#x, %v; netip.ParseAddr: %v, %v", b, v, ok, a, err)
		}
		if qv, qn, qok := quad(b); qok {
			if pv, pok := ParseV4(b[:qn]); !pok || pv != qv {
				t.Fatalf("quad(%q) = %#x over %d bytes, but ParseV4 of them = %#x, %v", b, qv, qn, pv, pok)
			}
			prefixes++
		}
		if ok {
			quads++
		}
	}
	if quads < 1000 || prefixes < 2*quads {
		t.Errorf("the sample hit %d whole quads and %d quad prefixes: too few to pin the grammar", quads, prefixes)
	}
}

// TestDecoderReuse pins scratch-state hygiene: decoding a rich line, then a
// minimal one, then an erroring one must not leak state between lines, and
// a view decoded earlier must not alias the decoder's scratch.
func TestDecoderReuse(t *testing.T) {
	var d Decoder
	in := newTestInterner()
	var v View
	rich := `{"msm_id":1,"prb_id":2,"timestamp":3,"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","paris_id":4,"result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1},{"x":"*"}]},{"hop":2,"result":[{"from":"4.4.4.4","rtt":2}]}]}`
	if err := d.DecodeView([]byte(rich), in, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Hops) != 2 || v.Hops[0].End-v.Hops[0].Start != 2 || len(v.From) != 3 {
		t.Fatalf("rich line decoded wrong: %+v", v)
	}
	keep := View{Time: v.Time, Prb: v.Prb, Dst: v.Dst, Hops: slices.Clone(v.Hops), From: slices.Clone(v.From), RTT: slices.Clone(v.RTT)}

	var v2 View
	if err := d.DecodeView([]byte(`{"src_addr":"5.5.5.5","dst_addr":"6.6.6.6","result":[]}`), in, &v2); err != nil {
		t.Fatal(err)
	}
	if len(v2.Hops) != 0 || len(v2.From) != 0 || v2.Prb != 0 || in.addrOf(v2.Dst) != netip.MustParseAddr("6.6.6.6") {
		t.Fatalf("state leaked into second decode: %+v", v2)
	}

	if err := d.DecodeView([]byte(`{"src_addr":"bad"`), in, &v2); err == nil {
		t.Fatal("expected error")
	}

	if !reflect.DeepEqual(keep, v) {
		t.Fatal("earlier view aliases decoder scratch")
	}
}

// TestDecodeFastCorpusEquivalence replays the generator corpus fixture
// through both decoders line by line.
func TestDecodeFastCorpusEquivalence(t *testing.T) {
	for i := 0; i < 200; i++ {
		r := sampleResult()
		r.PrbID = i
		r.Hops[0].Replies[0].RTT = 0.25 + float64(i)/7
		line, err := AppendResult(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		assertDifferential(t, string(line))
	}
}
