package trace

import (
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func sampleResult() Result {
	return Result{
		MsmID:   5001,
		PrbID:   42,
		Time:    time.Date(2015, 11, 30, 7, 0, 0, 0, time.UTC),
		Src:     addr("10.0.0.1"),
		Dst:     addr("193.0.14.129"),
		ParisID: 3,
		Hops: []Hop{
			{Index: 1, Replies: []Reply{
				{From: addr("10.0.0.254"), RTT: 0.5},
				{From: addr("10.0.0.254"), RTT: 0.6},
				{From: addr("10.0.0.254"), RTT: 0.4},
			}},
			{Index: 2, Replies: []Reply{
				{From: addr("172.16.0.1"), RTT: 5.1},
				{Timeout: true},
				{From: addr("172.16.0.2"), RTT: 5.3},
			}},
			{Index: 3, Replies: []Reply{
				{From: addr("193.0.14.129"), RTT: 9.9},
				{From: addr("193.0.14.129"), RTT: 10.1},
				{From: addr("193.0.14.129"), RTT: 9.8},
			}},
		},
	}
}

func TestHopResponders(t *testing.T) {
	r := sampleResult()
	if r.Hops[1].Unresponsive() {
		t.Error("hop 2 has a timeout but two responders: should be responsive")
	}
	if r.Hops[0].Unresponsive() {
		t.Error("hop 1 should be responsive")
	}
	dead := Hop{Index: 4, Replies: []Reply{{Timeout: true}, {Timeout: true}}}
	if !dead.Unresponsive() {
		t.Error("all-timeout hop should be unresponsive")
	}
	empty := Hop{Index: 5}
	if !empty.Unresponsive() {
		t.Error("empty hop should be unresponsive")
	}
}

func TestValidate(t *testing.T) {
	r := sampleResult()
	if err := r.Validate(); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	bad := sampleResult()
	bad.Src = netip.Addr{}
	if bad.Validate() == nil {
		t.Error("invalid src accepted")
	}
	bad = sampleResult()
	bad.Hops = nil
	if bad.Validate() == nil {
		t.Error("no hops accepted")
	}
	bad = sampleResult()
	bad.Hops[2].Index = 2 // duplicate
	if bad.Validate() == nil {
		t.Error("non-ascending hops accepted")
	}
}

func TestLinkKey(t *testing.T) {
	k := LinkKey{Near: addr("1.1.1.1"), Far: addr("2.2.2.2")}
	if !k.Valid() {
		t.Error("valid key rejected")
	}
	if k.String() != "1.1.1.1>2.2.2.2" {
		t.Errorf("String = %q", k.String())
	}
	if k.Reverse() != (LinkKey{Near: addr("2.2.2.2"), Far: addr("1.1.1.1")}) {
		t.Error("Reverse wrong")
	}
	if (LinkKey{Near: addr("1.1.1.1"), Far: addr("1.1.1.1")}).Valid() {
		t.Error("self-link should be invalid")
	}
	if (LinkKey{}).Valid() {
		t.Error("zero key should be invalid")
	}
	// Comparable: usable as a map key with value semantics.
	m := map[LinkKey]int{k: 7}
	if m[LinkKey{Near: addr("1.1.1.1"), Far: addr("2.2.2.2")}] != 7 {
		t.Error("LinkKey map lookup failed")
	}
}

func TestAdjacentPairs(t *testing.T) {
	r := sampleResult()
	pairs := r.AdjacentPairs()
	if len(pairs) != 2 {
		t.Fatalf("AdjacentPairs = %d, want 2", len(pairs))
	}
	if pairs[0].Near.Index != 1 || pairs[0].Far.Index != 2 {
		t.Errorf("pair 0 = %d,%d", pairs[0].Near.Index, pairs[0].Far.Index)
	}
	// A gap (missing hop index) breaks adjacency.
	r.Hops[1].Index = 5
	r.Hops[2].Index = 6
	pairs = r.AdjacentPairs()
	if len(pairs) != 1 || pairs[0].Near.Index != 5 {
		t.Errorf("gapped AdjacentPairs = %+v", pairs)
	}
}

// TestWrappedHopNumbersNotPaired: hop numbers MaxInt then MinInt pass
// far == near+1 by wrapping; they are not adjacent. DecodeView takes the
// line's numbers as they are, so the wrap reaches every consumer.
func TestWrappedHopNumbersNotPaired(t *testing.T) {
	line := fmt.Sprintf(`{"msm_id":5001,"prb_id":1,"timestamp":1433116800,"src_addr":"192.0.2.1","dst_addr":"198.51.100.1","result":[`+
		`{"hop":%d,"result":[{"from":"10.0.0.2","rtt":1.5}]},{"hop":%d,"result":[{"from":"10.0.0.3","rtt":9.5}]}]}`, math.MaxInt, math.MinInt)
	var r Result
	if err := r.UnmarshalJSON([]byte(line)); err != nil {
		t.Fatal(err)
	}
	if len(r.Hops) != 2 || r.Hops[0].Index != math.MaxInt || r.Hops[1].Index != math.MinInt {
		t.Fatalf("decoded hops %+v", r.Hops)
	}
	if pairs := r.AdjacentPairs(); len(pairs) != 0 {
		t.Errorf("wrapped hop numbers paired: %+v", pairs)
	}
}
