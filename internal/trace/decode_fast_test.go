package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// assertDifferential decodes line with both the fast path and the
// encoding/json oracle and asserts they agree: same accept/reject, same
// Result, same AddrError field/value on address rejection. It returns the
// fast path's outcome for case-specific assertions.
func assertDifferential(t *testing.T, line string) (Result, error) {
	t.Helper()
	var want Result
	oracleErr := json.Unmarshal([]byte(line), &want)
	var d Decoder
	var got Result
	fastErr := d.Decode([]byte(line), &got)

	if (oracleErr == nil) != (fastErr == nil) {
		t.Fatalf("accept/reject mismatch:\noracle: %v\nfast:   %v", oracleErr, fastErr)
	}
	if oracleErr != nil {
		var wantAddr, gotAddr *AddrError
		if errors.As(oracleErr, &wantAddr) != errors.As(fastErr, &gotAddr) {
			t.Fatalf("AddrError presence mismatch:\noracle: %v\nfast:   %v", oracleErr, fastErr)
		}
		if wantAddr != nil && (wantAddr.Field != gotAddr.Field || wantAddr.Value != gotAddr.Value) {
			t.Fatalf("AddrError detail mismatch:\noracle: %v\nfast:   %v", oracleErr, fastErr)
		}
		return got, fastErr
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decoded results differ:\noracle: %#v\nfast:   %#v", want, got)
	}
	return got, nil
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

// TestDecodeFastValues pins a few absolute outcomes (beyond oracle
// agreement) so a bug shared by both decoders cannot hide.
func TestDecodeFastValues(t *testing.T) {
	r, err := assertDifferential(t, `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":314E-2}]}]}`)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	rep := r.Hops[0].Replies[0]
	if rep.From != netip.MustParseAddr("3.3.3.3") || rep.RTT != 3.14 || rep.Timeout {
		t.Fatalf("reply = %+v, want from 3.3.3.3 rtt 3.14", rep)
	}
	if r.Time.Unix() != 0 || r.Time.Location() != r.Time.UTC().Location() {
		t.Fatalf("time = %v, want Unix 0 UTC", r.Time)
	}

	r, err = assertDifferential(t, `{"src_addr":"fe80::1%😀","dst_addr":"2.2.2.2","result":[]}`)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.Src.Zone() != "😀" {
		t.Fatalf("zone = %q, want the surrogate pair decoded", r.Src.Zone())
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
// an error must leave dst untouched.
func TestDecoderReuse(t *testing.T) {
	var d Decoder
	var r Result
	rich := `{"msm_id":1,"prb_id":2,"timestamp":3,"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","paris_id":4,"result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1},{"x":"*"}]},{"hop":2,"result":[{"from":"4.4.4.4","rtt":2}]}]}`
	if err := d.Decode([]byte(rich), &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Hops) != 2 || len(r.Hops[0].Replies) != 2 {
		t.Fatalf("rich line decoded wrong: %+v", r)
	}
	keep := r

	var r2 Result
	if err := d.Decode([]byte(`{"src_addr":"5.5.5.5","dst_addr":"6.6.6.6","result":[]}`), &r2); err != nil {
		t.Fatal(err)
	}
	if len(r2.Hops) != 0 || r2.MsmID != 0 {
		t.Fatalf("state leaked into second decode: %+v", r2)
	}

	if err := d.Decode([]byte(`{"src_addr":"bad"`), &r2); err == nil {
		t.Fatal("expected error")
	}
	if r2.Src != netip.MustParseAddr("5.5.5.5") {
		t.Fatalf("failed decode clobbered dst: %+v", r2)
	}

	if !reflect.DeepEqual(keep, r) {
		t.Fatal("earlier result aliases decoder scratch")
	}
}

// TestDecodeFastCorpusEquivalence replays the generator corpus fixture
// through both decoders line by line.
func TestDecodeFastCorpusEquivalence(t *testing.T) {
	var buf []byte
	for i := 0; i < 200; i++ {
		r := sampleResult()
		r.PrbID = i
		r.Hops[0].Replies[0].RTT = 0.25 + float64(i)/7
		line, err := AppendResult(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		buf = line
		assertDifferential(t, string(buf))
	}
}
