package ident

import (
	"errors"
	"net/netip"
	"reflect"
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
// where the view finisher could drift from the Result one.
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
}

// FuzzDecodeViewDifferential pins the two producers of a View to each
// other: on every input, Decoder.DecodeView and Interner.View over
// Decoder.Decode accept or reject together — with the same error text, so
// the same document-order precedence and the same AddrError — and build
// equal views once ids are resolved back to addresses.
func FuzzDecodeViewDifferential(f *testing.F) {
	for _, s := range viewSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var dec trace.Decoder
		wantIn, gotIn := NewInterner(NewRegistry()), NewInterner(NewRegistry())
		var r trace.Result
		var want, got trace.View
		wantErr := dec.Decode(line, &r)
		gotErr := dec.DecodeView(line, gotIn.AddrText, &got)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("accept/reject mismatch:\ninput: %q\nDecode:     %v\nDecodeView: %v", line, wantErr, gotErr)
		}
		if wantErr != nil {
			var a, b *trace.AddrError
			if errors.As(wantErr, &a) != errors.As(gotErr, &b) {
				t.Fatalf("AddrError mismatch:\ninput: %q\nDecode:     %v\nDecodeView: %v", line, wantErr, gotErr)
			}
			return
		}
		wantIn.View(&r, &want)
		w, g := resolve(wantIn.Registry(), &want), resolve(gotIn.Registry(), &got)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("views differ:\ninput: %q\nInterner.View(Decode): %+v\nDecodeView:            %+v", line, w, g)
		}
		// Ids resolve one to one: a view built from the result over the
		// decode side's own registry is the decoded view, id for id.
		gotIn.View(&r, &want)
		if want.Dst != got.Dst || !reflect.DeepEqual(append([]uint32{}, want.From...), append([]uint32{}, got.From...)) {
			t.Fatalf("ids differ over one registry:\ninput: %q\nInterner.View(Decode): %+v\nDecodeView:            %+v", line, want, got)
		}
	})
}

// TestViewProducersAllocationFree pins both producers at zero allocations
// once their scratch is warm.
func TestViewProducersAllocationFree(t *testing.T) {
	line := []byte(`{"msm_id":5001,"prb_id":42,"timestamp":1448866800,"src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,"result":[{"hop":1,"result":[{"from":"10.0.0.254","rtt":0.52},{"from":"10.0.0.254","rtt":0.6},{"x":"*"}]},{"hop":2,"result":[{"from":"10.0.1.254","rtt":1.25},{"from":"193.0.14.129","rtt":2}]}]}`)
	var dec trace.Decoder
	in := NewInterner(NewRegistry())
	var r trace.Result
	var v trace.View
	if err := dec.Decode(line, &r); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { in.View(&r, &v) }); n != 0 {
		t.Errorf("Interner.View allocates %v times per result, want 0", n)
	}
	decode := func() {
		if err := dec.DecodeView(line, in.AddrText, &v); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Errorf("Decoder.DecodeView allocates %v times per line, want 0", n)
	}
}
