package trace

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

// randomResult generates a structurally valid random result.
func randomResult(rng *rand.Rand) Result {
	addr := func() netip.Addr {
		return netip.AddrFrom4([4]byte{byte(rng.IntN(223) + 1), byte(rng.IntN(256)), byte(rng.IntN(256)), byte(rng.IntN(254) + 1)})
	}
	r := Result{
		MsmID:   rng.IntN(10000),
		PrbID:   rng.IntN(10000),
		Time:    time.Unix(int64(1430000000+rng.IntN(20000000)), 0).UTC(),
		Src:     addr(),
		Dst:     addr(),
		ParisID: rng.IntN(16),
	}
	hops := rng.IntN(12) + 1
	for h := 1; h <= hops; h++ {
		hop := Hop{Index: h}
		for p := 0; p < 3; p++ {
			if rng.Float64() < 0.15 {
				hop.Replies = append(hop.Replies, Reply{Timeout: true})
			} else {
				hop.Replies = append(hop.Replies, Reply{From: addr(), RTT: rng.Float64() * 300})
			}
		}
		r.Hops = append(r.Hops, hop)
	}
	return r
}

// Property: JSON round trip preserves every field of arbitrary results.
func TestJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 28))
	f := func() bool {
		orig := randomResult(rng)
		b, err := json.Marshal(orig)
		if err != nil {
			return false
		}
		var got Result
		if err := json.Unmarshal(b, &got); err != nil {
			return false
		}
		if got.MsmID != orig.MsmID || got.PrbID != orig.PrbID ||
			got.ParisID != orig.ParisID || !got.Time.Equal(orig.Time) ||
			got.Src != orig.Src || got.Dst != orig.Dst ||
			len(got.Hops) != len(orig.Hops) {
			return false
		}
		for i := range got.Hops {
			if got.Hops[i].Index != orig.Hops[i].Index ||
				len(got.Hops[i].Replies) != len(orig.Hops[i].Replies) {
				return false
			}
			for j := range got.Hops[i].Replies {
				if got.Hops[i].Replies[j] != orig.Hops[i].Replies[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: AdjacentPairs returns only consecutive indices, and Validate
// accepts everything randomResult makes.
func TestStructuralProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 29))
	f := func() bool {
		r := randomResult(rng)
		if err := r.Validate(); err != nil {
			return false
		}
		for _, p := range r.AdjacentPairs() {
			if p.Far.Index != p.Near.Index+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the fast path decodes every line our encoder writes, with no
// decline, to the view of the result encoded. A decline would still decode
// correctly, through the reference decoder, so only this test notices
// replay lines taking a path 10–20× slower. The lines vary randomResult
// with IPv6 responders, empty hops and the RTT forms a dump carries: full
// precision, Atlas's three decimals, 0.01 ms and full-precision values just
// above it.
func TestEncoderOutputNeverDeclines(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 35))
	var d Decoder
	in := newTestInterner()
	var got, want View
	for n := 0; n < 2000; n++ {
		r := randomResult(rng)
		for i := range r.Hops {
			h := &r.Hops[i]
			if rng.IntN(10) == 0 {
				h.Replies = nil
			}
			for j := range h.Replies {
				rep := &h.Replies[j]
				if rep.Timeout {
					continue
				}
				if rng.IntN(4) == 0 {
					var a [16]byte
					for k := range a {
						a[k] = byte(rng.IntN(256))
					}
					a[0], a[1] = 0x20, 0x01
					rep.From = netip.AddrFrom16(a)
				}
				switch rng.IntN(4) {
				case 0:
					rep.RTT = math.Round(rep.RTT*1000) / 1000
				case 1:
					rep.RTT = 0.01
				case 2:
					rep.RTT = 0.01 + rng.Float64()*0.09
				}
			}
		}
		line, err := AppendResult(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		var top topFields
		if !d.scan(line, &top) {
			t.Fatalf("scan declines our encoder's line %s", line)
		}
		if !d.view(line, in, &got) {
			t.Fatalf("DecodeView's fast path declines our encoder's line %s", line)
		}
		want.Fill(&r, in.id)
		if !sameView(&got, &want) {
			t.Fatalf("line %s\ndecodes to %+v\nwant       %+v", line, got, want)
		}
	}
}
