package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// quadLine is a canonical line with one hop whose replies come from froms,
// in order.
func quadLine(froms ...string) string {
	var b strings.Builder
	b.WriteString(`{"msm_id":5001,"prb_id":42,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,"result":[{"hop":1,"result":[`)
	for i, from := range froms {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"from":"%s","rtt":%d.25}`, from, i+1)
	}
	b.WriteString(`]}]}`)
	return b.String()
}

// fuzzSeeds are shared by FuzzDecodeResult and FuzzDecodeDifferential: the
// checked-in corpora under testdata/fuzz hold lines drawn from atlasgen
// output; these add hand-written artifact cases from real-dump
// pathologies, and the canonical-shape lines where the scan's fused
// dotted-quad parse could go wrong.
func fuzzSeeds() []string {
	return []string{
		// Canonical atlasgen-style line.
		`{"msm_id":5001,"prb_id":42,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,"result":[{"hop":1,"result":[{"from":"10.0.0.254","rtt":0.52},{"x":"*"}]}]}`,
		// IPv6 with compat fields.
		`{"src_addr":"2001:db8::1","dst_addr":"2001:db8::2","result":[{"hop":1,"result":[{"from":"2001:db8::3","rtt":1.25,"ttl":63,"size":28}]}]}`,
		// Artifact zoo: late packet, err entry, negative RTT.
		`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","late":2},{"err":"N - network unreachable","from":"3.3.3.3","rtt":4.5},{"from":"3.3.3.3","rtt":-1}]}]}`,
		// Unresponsive gap and empty reply sets.
		`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[]},{"hop":4,"result":[{"x":"*"},{"x":"*"}]}]}`,
		// Degenerate documents.
		`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[]}`,
		`null`,
		`{}`,
		`{"timestamp":-9223372036854775808,"src_addr":"::","dst_addr":"0.0.0.0","result":[{"hop":-1,"result":[{"from":"::ffff:1.2.3.4","rtt":5e-324}]}]}`,
		// Zoned IPv6 and v4-mapped addresses.
		`{"src_addr":"fe80::1%eth0","dst_addr":"255.255.255.255","result":[{"hop":1,"result":[{"from":"fe80::2%0","rtt":1e3}]}]}`,
		// Escapes, folded keys, duplicate keys, exponent forms — fast-path
		// edge territory.
		`{"SRC_ADDR":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1.25e1,"x":null}]}],"result":[]}`,
		`{"src_addr":"fe80::1%eth😀","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":0.30000000000000004}]}]}`,
		// Canonical shapes around the scan's fused dotted-quad parse: text
		// that is almost a quad, a quad that is not the whole text, repeats
		// that extend or cut the previous reply's text, a truncated line.
		quadLine("1.2.3.4", "01.2.3.4"),
		quadLine("1.2.3.4", "1.2.3.256"),
		quadLine("1.2.3.4", "1.2.3"),
		quadLine("1.2.3.4", "1.2.3.4.5"),
		quadLine("1.2.3.4", "1.2.3.4 "),
		quadLine("1.2.3.4", `1\u002e2.3.4`, "1.2.3.4"),
		quadLine("1.2.3.4", "::ffff:1.2.3.4", "1.2.3.4"),
		quadLine("3.3.3.3", "3.3.3.33", "3.3.3.3"),
		quadLine("3.3.3.33", "3.3.3.3", "3.3.3.33"),
		quadLine("255.255.255.255", "255.255.255.25", "255.255.255.255"),
		strings.TrimSuffix(quadLine("1.2.3.4", "5.6.7.8"), `","rtt":2.25}]}]}`),
		// A hop, a prb_id and a reply ttl of 2³²+k: encoding/json rejects
		// them where int is 32 bits, so they must not decode wrapped to k.
		`{"msm_id":5001,"prb_id":42,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,"result":[{"hop":1,"result":[{"from":"10.0.0.254","rtt":0.52}]},{"hop":4294967298,"result":[{"from":"10.0.1.254","rtt":1.5}]}]}`,
		`{"msm_id":5001,"prb_id":4294967338,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,"result":[{"hop":1,"result":[{"from":"10.0.0.254","rtt":0.52}]}]}`,
		`{"msm_id":5001,"prb_id":42,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,"result":[{"hop":1,"result":[{"from":"10.0.0.254","ttl":4294967359,"rtt":0.52}]}]}`,
	}
}

// FuzzDecodeResult fuzzes the Atlas wire decoder with two invariants:
//
//  1. the decoder never panics — malformed input must fail with an error,
//     and artifact-laden input (timeouts, late/err packets, missing RTTs)
//     must degrade per the documented leniency rules, and
//  2. whatever the decoder accepts it round-trips: encoding the decoded
//     result and decoding it again yields the identical structure (decode
//     is a normalization, so decode∘encode is the identity on its image).
func FuzzDecodeResult(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return // rejected input; the only obligation is not panicking
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("accepted result failed to encode: %v\ninput: %q", err, data)
		}
		var r2 Result
		if err := json.Unmarshal(b, &r2); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\nencoded: %s", err, b)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round-trip not stable:\ninput: %q\nfirst:  %#v\nsecond: %#v", data, r, r2)
		}
	})
}

// FuzzDecodeDifferential is the scanner's contract: for every input,
// Decoder.DecodeView and the reference decoder Result.UnmarshalJSON accept
// or reject together, a reject carries the reference's error, and an
// accepted line's view is the one View.Fill builds from the reference's
// Result (assertDifferential). On an accepted line the fast encoder must
// also reproduce the reference encoder's bytes for that Result exactly.
func FuzzDecodeDifferential(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := assertDifferential(t, string(data)); err != nil {
			return
		}
		var r Result
		if err := r.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		wantB, wantEncErr := json.Marshal(r)
		gotB, gotEncErr := AppendResult(nil, r)
		if (wantEncErr == nil) != (gotEncErr == nil) {
			t.Fatalf("encoder accept/reject mismatch:\noracle: %v\nfast: %v", wantEncErr, gotEncErr)
		}
		if wantEncErr == nil && !bytes.Equal(wantB, gotB) {
			t.Fatalf("encoded bytes differ:\noracle: %s\nfast:   %s", wantB, gotB)
		}
	})
}
