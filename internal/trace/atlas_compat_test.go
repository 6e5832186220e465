package trace

import (
	"encoding/json"
	"testing"
)

// Real RIPE Atlas dumps carry extra per-reply fields (ttl, size, late, err)
// and error entries without RTTs; decoding must tolerate all of them.
func TestDecodeRealAtlasShape(t *testing.T) {
	line := `{"msm_id":5001,"prb_id":42,"timestamp":1448866800,
	 "src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,
	 "result":[
	   {"hop":1,"result":[
	     {"from":"10.0.0.254","rtt":0.52,"ttl":63,"size":28},
	     {"x":"*"},
	     {"from":"10.0.0.254","rtt":0.61,"ttl":63,"size":28,"late":2}]},
	   {"hop":2,"result":[
	     {"from":"172.16.0.1","err":"N"},
	     {"from":"172.16.0.1","rtt":5.2,"ttl":62},
	     {"from":"172.16.0.1"}]}
	 ]}`
	var r Result
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(r.Hops) != 2 {
		t.Fatalf("hops = %d", len(r.Hops))
	}
	usable := func(h Hop, from string) (rtts []float64) {
		for _, rep := range h.Replies {
			if !rep.Timeout && rep.From == addr(from) {
				rtts = append(rtts, rep.RTT)
			}
		}
		return rtts
	}
	// Hop 1: two usable replies + one timeout.
	h1 := r.Hops[0]
	if got := usable(h1, "10.0.0.254"); len(got) != 2 {
		t.Errorf("hop1 usable RTTs = %v", got)
	}
	// Hop 2: err entry and missing-rtt entry degrade to timeouts; one
	// usable reply survives.
	h2 := r.Hops[1]
	if got := usable(h2, "172.16.0.1"); len(got) != 1 || got[0] != 5.2 {
		t.Errorf("hop2 usable RTTs = %v", got)
	}
	timeouts := 0
	for _, rep := range h2.Replies {
		if rep.Timeout {
			timeouts++
		}
	}
	if timeouts != 2 {
		t.Errorf("hop2 timeouts = %d, want 2 (err + missing rtt)", timeouts)
	}
}
