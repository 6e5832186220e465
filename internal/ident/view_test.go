package ident

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"pinpoint/internal/trace"
)

// resolvedView is a View with its ids resolved back to addresses, so views
// built over different registries compare.
type resolvedView struct {
	Time time.Time
	Prb  int
	Dst  netip.Addr
	Hops []trace.ViewHop
	From []netip.Addr
	RTT  []float64
}

func resolve(g *Registry, v *trace.View) resolvedView {
	out := resolvedView{Time: v.Time, Prb: v.Prb, Dst: g.AddrOf(AddrID(v.Dst)),
		Hops: append([]trace.ViewHop{}, v.Hops...), From: []netip.Addr{}, RTT: append([]float64{}, v.RTT...)}
	for _, id := range v.From {
		out.From = append(out.From, g.AddrOf(AddrID(id)))
	}
	return out
}

// viewSeeds are the seed corpus of FuzzDecodeViewDifferential: the shapes
// where the scanner's view could drift from the reference decoder's.
var viewSeeds = []string{
	// Canonical line: repeated responder text, a timeout, IPv4 and IPv6.
	`{"msm_id":5001,"prb_id":42,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,"result":[{"hop":1,"result":[{"from":"10.0.0.254","rtt":0.52},{"from":"10.0.0.254","rtt":0.6},{"x":"*"}]},{"hop":2,"result":[{"from":"2001:db8::3","rtt":1.25},{"from":"193.0.14.129","rtt":2}]}]}`,
	// Duplicate result keys: the reference-decoder fallback, both levels.
	`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1}]}],"result":[{"hop":2,"result":[{"from":"fe80::1%eth0","rtt":2},{"x":"*"}]}]}`,
	`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1}],"result":[{"from":"::ffff:4.4.4.4","rtt":2}]}]}`,
	// Escaped and invalid-UTF-8 address text, a zoned IPv6 address.
	`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1},{"from":"3.3.3.3","rtt":1},{"from":"fe80::1%ethé","rtt":2}]}]}`,
	"{\"src_addr\":\"1.1.1.1\",\"dst_addr\":\"2.2.2.2\",\"result\":[{\"hop\":1,\"result\":[{\"from\":\"fe80::1%e\xffh\",\"rtt\":1},{\"from\":\"fe80::1%e\xffh\",\"rtt\":1}]}]}",
	"{\"src_addr\":\"1.1.1.1\",\"dst_addr\":\"2.2.\xff2.2\",\"result\":[]}",
	`{"src_addr":"fe80::1%eth0","dst_addr":"fe80::2%eth0","result":[{"hop":1,"result":[{"from":"fe80::2%eth0","rtt":1e3}]}]}`,
	// Timeouts, late and err replies, null, empty and missing result arrays.
	`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"x":"*"},{"from":"3.3.3.3","late":2},{"err":"N","from":"3.3.3.3","rtt":4.5},{"from":"3.3.3.3","rtt":-1},null]}]}`,
	`null`,
	`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[]}`,
	`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":null}`,
	`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":3,"result":[]},null]}`,
	// Error precedence: syntax before src_addr before dst_addr before from.
	`{"src_addr":"bad","dst_addr":"worse","result":[{"hop":1,"result":[{"from":"worst","rtt":1}]}]}`,
	`{"src_addr":"1.1.1.1","dst_addr":"worse","result":[{"hop":1,"result":[{"from":"worst","rtt":1}]}]}`,
	`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"worst","rtt":1}]}]}`,
	`{"src_addr":"bad","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1}]}]`,
	`{"src_addr":"1.1.1.1","dst_addr":"","result":[]}`,
	// Hop numbers that differ only above bit 31 must not become adjacent.
	`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3","rtt":1}]},{"hop":4294967298,"result":[{"from":"4.4.4.4","rtt":2}]}]}`,
	// Canonical lines with a hop, a prb_id and a reply ttl of 2³²+k: on
	// 32-bit platforms encoding/json rejects them, and they must not
	// decode wrapped to k.
	`{"msm_id":5001,"prb_id":42,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,"result":[{"hop":1,"result":[{"from":"10.0.0.254","rtt":0.52}]},{"hop":4294967298,"result":[{"from":"10.0.1.254","rtt":1.5}]}]}`,
	`{"msm_id":5001,"prb_id":4294967338,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,"result":[{"hop":1,"result":[{"from":"10.0.0.254","rtt":0.52}]}]}`,
	`{"msm_id":5001,"prb_id":42,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,"result":[{"hop":1,"result":[{"from":"10.0.0.254","ttl":4294967359,"rtt":0.52}]}]}`,
}

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

// quadSeeds are the canonical-shape lines where the scan's fused
// dotted-quad parse could go wrong: text that is almost a quad, a quad
// that is not the whole text, repeats that extend or cut the previous
// reply's text, and a line cut right after a quad. The first reply of each
// parses cleanly, so what follows it also meets the reuse check.
var quadSeeds = []string{
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
}

// fixtureLine has the replay fixture's shape: full-precision RTTs, three
// replies per hop, one timeout.
const fixtureLine = `{"msm_id":5002,"prb_id":6,"timestamp":1448668802,"src_addr":"10.11.189.1","dst_addr":"10.11.184.200","paris_id":13,"result":[` +
	`{"hop":1,"result":[{"from":"10.11.189.2","rtt":4.024202446952091},{"from":"10.11.189.2","rtt":4.136615178837078},{"from":"10.11.189.2","rtt":3.91525660057784}]},` +
	`{"hop":2,"result":[{"from":"10.7.211.3","rtt":14.25895880372297},{"x":"*"},{"from":"10.7.211.3","rtt":13.715442491062804}]},` +
	`{"hop":3,"result":[{"from":"10.7.211.1","rtt":22.512964441805615},{"from":"10.7.211.1","rtt":21.7921169918171},{"from":"10.7.211.1","rtt":21.86374056177855}]},` +
	`{"hop":4,"result":[{"from":"10.11.184.1","rtt":26.57813396469501},{"from":"10.11.184.1","rtt":26.591371729804514},{"from":"10.11.184.1","rtt":26.32383302803167}]},` +
	`{"hop":5,"result":[{"from":"10.11.184.200","rtt":31.249051875889162},{"from":"10.11.184.200","rtt":31.204861304467467},{"from":"10.11.184.200","rtt":31.2768870643264}]}]}`

// fixtureLine6 is fixtureLine on IPv6, the simulator's fd00:<asn>::/48
// addressing: every address is text the dotted-quad path declines.
var fixtureLine6 = regexp.MustCompile(`"10\.(\d+)\.(\d+)\.(\d+)"`).ReplaceAllString(fixtureLine, `"fd00:$1:$2::$3"`)

// atlasLine has a real RIPE Atlas result's shape: Atlas key order, the
// top-level members the detectors never read (fw, lts, endtime, proto,
// msm_name, ...), ttl and size on every reply, Atlas's three-decimal RTTs.
// Its top-level object and its replies go through the member walker.
const atlasLine = `{"fw":4790,"lts":19,"endtime":1448866803,"dst_name":"193.0.14.129","dst_addr":"193.0.14.129","src_addr":"10.0.0.1","proto":"ICMP","af":4,"size":48,"paris_id":3,"result":[` +
	`{"hop":1,"result":[{"from":"10.0.0.254","ttl":255,"size":28,"rtt":0.523},{"from":"10.0.0.254","ttl":255,"size":28,"rtt":0.61},{"from":"10.0.0.254","ttl":255,"size":28,"rtt":0.498}]},` +
	`{"hop":2,"result":[{"from":"172.16.0.1","ttl":254,"size":28,"rtt":5.214},{"x":"*"},{"from":"172.16.0.1","ttl":254,"size":28,"rtt":5.177}]},` +
	`{"hop":3,"result":[{"from":"62.40.98.1","ttl":253,"size":68,"rtt":12.905},{"from":"62.40.98.1","ttl":253,"size":68,"rtt":12.874},{"from":"62.40.98.1","ttl":253,"size":68,"rtt":13.02}]},` +
	`{"hop":4,"result":[{"from":"193.0.14.129","ttl":60,"size":28,"rtt":14.331},{"from":"193.0.14.129","ttl":60,"size":28,"rtt":14.29},{"from":"193.0.14.129","ttl":60,"size":28,"rtt":14.402}]}` +
	`],"msm_id":5001,"prb_id":42,"timestamp":1448866800,"msm_name":"Traceroute","from":"85.1.2.3","type":"traceroute","group_id":5001}`

// checkViewProducers asserts that Decoder.DecodeView and the reference
// decoder Result.UnmarshalJSON accept or reject line together — with the
// reference decoder's error text, so the same document-order precedence
// and the same AddrError — and that DecodeView's view equals
// Interner.View over the reference's Result once ids are resolved back to
// addresses, and id for id over one registry.
func checkViewProducers(t *testing.T, line []byte) {
	t.Helper()
	var dec trace.Decoder
	wantIn, gotIn := NewInterner(NewRegistry()), NewInterner(NewRegistry())
	var r trace.Result
	var want, got trace.View
	refErr := r.UnmarshalJSON(line)
	gotErr := dec.DecodeView(line, gotIn, &got)
	if (refErr == nil) != (gotErr == nil) || (refErr != nil && refErr.Error() != gotErr.Error()) {
		t.Fatalf("accept/reject mismatch:\ninput: %q\nreference:  %v\nDecodeView: %v", line, refErr, gotErr)
	}
	if refErr != nil {
		var a, b *trace.AddrError
		if errors.As(refErr, &a) != errors.As(gotErr, &b) {
			t.Fatalf("AddrError mismatch:\ninput: %q\nreference:  %v\nDecodeView: %v", line, refErr, gotErr)
		}
		return
	}
	wantIn.View(&r, &want)
	w, g := resolve(wantIn.Registry(), &want), resolve(gotIn.Registry(), &got)
	if !reflect.DeepEqual(w, g) {
		t.Fatalf("views differ:\ninput: %q\nInterner.View(reference): %+v\nDecodeView:               %+v", line, w, g)
	}
	// Ids resolve one to one: a view built from the result over the
	// decode side's own registry is the decoded view, id for id.
	gotIn.View(&r, &want)
	if want.Dst != got.Dst || !reflect.DeepEqual(append([]uint32{}, want.From...), append([]uint32{}, got.From...)) {
		t.Fatalf("ids differ over one registry:\ninput: %q\nInterner.View(reference): %+v\nDecodeView:               %+v", line, want, got)
	}
}

// FuzzDecodeViewDifferential pins DecodeView, interning through the real
// Interner, to the reference decoder on every input (checkViewProducers).
func FuzzDecodeViewDifferential(f *testing.F) {
	for _, s := range append(append(viewSeeds, quadSeeds...), fixtureLine, fixtureLine6) {
		f.Add([]byte(s))
	}
	f.Fuzz(checkViewProducers)
}

// TestQuadEdges runs the quad seeds and the fixture line through
// checkViewProducers.
func TestQuadEdges(t *testing.T) {
	for _, line := range append(quadSeeds, fixtureLine, fixtureLine6) {
		checkViewProducers(t, []byte(line))
	}
}

// TestViewProducersAllocationFree pins both producers at zero allocations
// once their scratch is warm.
func TestViewProducersAllocationFree(t *testing.T) {
	for _, line := range [][]byte{
		[]byte(`{"msm_id":5001,"prb_id":42,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,"result":[{"hop":1,"result":[{"from":"10.0.0.254","rtt":0.52},{"from":"10.0.0.254","rtt":0.6},{"x":"*"}]},{"hop":2,"result":[{"from":"10.0.1.254","rtt":1.25},{"from":"193.0.14.129","rtt":2}]}]}`),
		[]byte(fixtureLine),
		[]byte(fixtureLine6),
		[]byte(atlasLine),
	} {
		var dec trace.Decoder
		in := NewInterner(NewRegistry())
		var r trace.Result
		var v trace.View
		if err := r.UnmarshalJSON(line); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { in.View(&r, &v) }); n != 0 {
			t.Errorf("Interner.View allocates %v times per result, want 0", n)
		}
		decode := func() {
			if err := dec.DecodeView(line, in, &v); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, decode); n != 0 {
			t.Errorf("Decoder.DecodeView allocates %v times per line, want 0", n)
		}
	}
}

// BenchmarkDecodeView is the replay hot path's decode half, interning into
// a warm Interner: on a fixture-shaped line (the canonical shape) and on a
// real-Atlas-shaped one (the member walker).
func BenchmarkDecodeView(b *testing.B) {
	for _, bc := range []struct{ name, line string }{{"fixture", fixtureLine}, {"fixture-v6", fixtureLine6}, {"atlas", atlasLine}} {
		b.Run(bc.name, func(b *testing.B) {
			line := []byte(bc.line)
			var dec trace.Decoder
			in := NewInterner(NewRegistry())
			var v trace.View
			if err := dec.DecodeView(line, in, &v); err != nil { // warm the columns and the interner
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dec.DecodeView(line, in, &v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
