package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := sampleResult()
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Result
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.MsmID != orig.MsmID || got.PrbID != orig.PrbID || got.ParisID != orig.ParisID {
		t.Errorf("ids differ: %+v vs %+v", got, orig)
	}
	if !got.Time.Equal(orig.Time) {
		t.Errorf("time differs: %v vs %v", got.Time, orig.Time)
	}
	if got.Src != orig.Src || got.Dst != orig.Dst {
		t.Errorf("addrs differ")
	}
	if len(got.Hops) != len(orig.Hops) {
		t.Fatalf("hops differ: %d vs %d", len(got.Hops), len(orig.Hops))
	}
	for i := range got.Hops {
		if got.Hops[i].Index != orig.Hops[i].Index {
			t.Errorf("hop %d index differs", i)
		}
		if len(got.Hops[i].Replies) != len(orig.Hops[i].Replies) {
			t.Fatalf("hop %d replies differ", i)
		}
		for j := range got.Hops[i].Replies {
			g, o := got.Hops[i].Replies[j], orig.Hops[i].Replies[j]
			if g.Timeout != o.Timeout || g.From != o.From || g.RTT != o.RTT {
				t.Errorf("hop %d reply %d: %+v vs %+v", i, j, g, o)
			}
		}
	}
}

func TestJSONWireShape(t *testing.T) {
	b, err := json.Marshal(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"msm_id":5001`, `"prb_id":42`, `"src_addr":"10.0.0.1"`,
		`"dst_addr":"193.0.14.129"`, `"paris_id":3`, `"x":"*"`, `"hop":1`} {
		if !strings.Contains(s, want) {
			t.Errorf("wire JSON missing %s in %s", want, s)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		`{`, // malformed
		`{"src_addr":"nope","dst_addr":"1.1.1.1","result":[]}`,
		`{"src_addr":"1.1.1.1","dst_addr":"nope","result":[]}`,
		`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"bad","rtt":5}]}]}`,
	}
	for i, c := range cases {
		var r Result
		if err := json.Unmarshal([]byte(c), &r); err == nil {
			t.Errorf("case %d: expected error for %s", i, c)
		}
	}
	// Atlas-compat leniency: a reply with an address but no RTT carries no
	// delay sample and degrades to a timeout instead of failing the result.
	var r Result
	lenient := `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"3.3.3.3"}]}]}`
	if err := json.Unmarshal([]byte(lenient), &r); err != nil {
		t.Fatalf("missing-rtt reply should degrade, got error: %v", err)
	}
	if !r.Hops[0].Replies[0].Timeout {
		t.Error("missing-rtt reply should become a timeout")
	}
}

// TestStreamRoundTrip writes results through Writer and reads its lines
// back through the reference decoder: one result a line, in order.
func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 25
	for i := 0; i < n; i++ {
		r := sampleResult()
		r.PrbID = i
		if err := w.Write(r); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("wrote %d lines, want %d", len(lines), n)
	}
	for i, line := range lines {
		var r Result
		if err := r.UnmarshalJSON([]byte(line)); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if r.PrbID != i {
			t.Errorf("result %d has PrbID %d", i, r.PrbID)
		}
	}
}
