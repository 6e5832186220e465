package serve

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// proto2Delta is a delta as a proto-2 writer encoded it: gen and rebuild are
// unknown fields now.
const proto2Delta = `{"seq":7,"gen":2,"bin":"2015-05-01T03:00:00Z","results":9,"delay_alarms":[],"fwd_alarms":[],"events":[],"rebuild":true,"done":false}`

// TestFeedDecodeDropsProto2Fields: a proto-2-shaped delta decodes (unknown
// fields are ignored, not an error) and re-encodes without them.
func TestFeedDecodeDropsProto2Fields(t *testing.T) {
	d, err := decodeDelta([]byte(proto2Delta))
	if err != nil || d.Seq != 7 || d.Results != 9 {
		t.Fatalf("proto-2 delta: %+v, err %v", d, err)
	}
	enc, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(enc, []byte("gen")) || bytes.Contains(enc, []byte("rebuild")) {
		t.Fatalf("re-encoded delta still carries proto-2 fields: %s", enc)
	}
}

// FuzzFeedDecode pins the follower's half of the feed codec: decodeDelta
// (and decodeHello) must never panic on arbitrary bytes, and for any delta
// decodeDelta accepts, encode∘decode is the identity on the encoded form —
// the byte-identity guarantee of the replication feed rests on exactly this
// round trip.
func FuzzFeedDecode(f *testing.F) {
	bin := time.Date(2015, 5, 1, 3, 0, 0, 0, time.UTC)
	ids := Identities{Addrs: 46, Links: 69, Flows: 114, Routers: 39}
	seeds := []Delta{
		{Seq: 1, Results: 0, DelayAlarms: []DelayAlarm{}, FwdAlarms: []FwdAlarm{}, Events: []Event{}},
		{
			Seq: 5, Bin: bin, Results: 22272,
			DelayAlarms: []DelayAlarm{{
				Bin: bin, Link: "10.1.0.1>10.2.0.1",
				MedianMS: 12.25, RefMS: 10, ShiftMS: 2.25, Deviation: 7.5,
				Probes: 9, ASes: 4,
			}},
			FwdAlarms: []FwdAlarm{{
				Bin: bin, Router: "10.2.0.9", Dst: "198.51.100.1",
				Rho: -0.62, TopHop: "10.2.0.7", TopR: -0.4,
			}},
			Events:     []Event{{ASN: "AS2001", Bin: bin, Type: "delay", Magnitude: 12.5}},
			MagStart:   bin.Add(-2 * time.Hour),
			MagThrough: bin.Add(time.Hour),
			DelayMag:   []MagRow{{ASN: 2001, T: bin, V: 3.5}, {ASN: 2003, T: bin, V: 0}},
			FwdMag:     []MagRow{{ASN: 2001, T: bin, V: -1.25}},
			Identities: &ids,
		},
		{Seq: 98, Bin: bin, Results: 7, Full: true, Done: true},
		{Seq: 9, Failed: true, Err: "ingest: connection reset"},
	}
	for _, d := range seeds {
		b, err := json.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	if b, err := json.Marshal(helloFor(&Snapshot{Seq: 3, Results: 12, BinSize: time.Hour,
		Meta: Meta{Case: "ddos", Start: bin, End: bin.Add(12 * time.Hour)}})); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"seq":18446744073709551615}`))
	f.Add([]byte(proto2Delta))
	f.Add([]byte(`{"bin":"not-a-time"}`))
	f.Add([]byte{0xff, 0xfe, '{', '}'})

	f.Fuzz(func(t *testing.T, b []byte) {
		decodeHello(b) // must not panic; identity is pinned on the delta side
		d, err := decodeDelta(b)
		if err != nil {
			return
		}
		enc, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted delta does not re-encode: %v", err)
		}
		d2, err := decodeDelta(enc)
		if err != nil {
			t.Fatalf("re-encoded delta does not decode: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(d2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode is not the identity:\n  first:  %s\n  second: %s", enc, enc2)
		}
	})
}
