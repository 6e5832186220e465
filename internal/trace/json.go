package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"time"
)

// Wire format, modeled on the RIPE Atlas traceroute result schema:
//
//	{"msm_id":5001,"prb_id":42,"timestamp":1448866800,
//	 "src_addr":"10.0.0.1","dst_addr":"193.0.14.129","paris_id":3,
//	 "result":[{"hop":1,"result":[{"from":"10.0.0.254","rtt":0.52},
//	                              {"x":"*"}]}]}
//
// Timestamps are Unix seconds (UTC), RTTs are milliseconds.

type wireReply struct {
	From string   `json:"from,omitempty"`
	RTT  *float64 `json:"rtt,omitempty"`
	X    string   `json:"x,omitempty"`

	// Fields present in real RIPE Atlas dumps, accepted for compatibility
	// and ignored on encode: TTL of the reply, packet size, late-arrival
	// count, and per-packet errors (e.g. "N - network unreachable").
	TTL  int             `json:"ttl,omitempty"`
	Size int             `json:"size,omitempty"`
	Late json.RawMessage `json:"late,omitempty"`
	Err  json.RawMessage `json:"err,omitempty"`
}

type wireHop struct {
	Hop     int         `json:"hop"`
	Replies []wireReply `json:"result"`
}

type wireResult struct {
	MsmID     int       `json:"msm_id"`
	PrbID     int       `json:"prb_id"`
	Timestamp int64     `json:"timestamp"`
	SrcAddr   string    `json:"src_addr"`
	DstAddr   string    `json:"dst_addr"`
	ParisID   int       `json:"paris_id"`
	Result    []wireHop `json:"result"`
}

// MarshalJSON encodes the result in the Atlas-like wire format.
func (r Result) MarshalJSON() ([]byte, error) {
	w := wireResult{
		MsmID:     r.MsmID,
		PrbID:     r.PrbID,
		Timestamp: r.Time.Unix(),
		SrcAddr:   r.Src.String(),
		DstAddr:   r.Dst.String(),
		ParisID:   r.ParisID,
		Result:    make([]wireHop, 0, len(r.Hops)),
	}
	for _, h := range r.Hops {
		wh := wireHop{Hop: h.Index, Replies: make([]wireReply, 0, len(h.Replies))}
		for _, rep := range h.Replies {
			if rep.Timeout {
				wh.Replies = append(wh.Replies, wireReply{X: "*"})
				continue
			}
			rtt := rep.RTT
			wh.Replies = append(wh.Replies, wireReply{From: rep.From.String(), RTT: &rtt})
		}
		w.Result = append(w.Result, wh)
	}
	return json.Marshal(w)
}

// AddrError reports a malformed address field in the wire format. It is
// returned (wrapped) by Result.UnmarshalJSON and matched with errors.As.
type AddrError struct {
	Field string // "src_addr", "dst_addr" or "from"
	Value string
	Err   error
}

// Error implements error.
func (e *AddrError) Error() string {
	return fmt.Sprintf("trace: bad %s %q: %v", e.Field, e.Value, e.Err)
}

// Unwrap exposes the underlying netip parse error.
func (e *AddrError) Unwrap() error { return e.Err }

// UnmarshalJSON decodes the Atlas-like wire format.
func (r *Result) UnmarshalJSON(data []byte) error {
	var w wireResult
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("trace: decoding result: %w", err)
	}
	src, err := netip.ParseAddr(w.SrcAddr)
	if err != nil {
		return &AddrError{Field: "src_addr", Value: w.SrcAddr, Err: err}
	}
	dst, err := netip.ParseAddr(w.DstAddr)
	if err != nil {
		return &AddrError{Field: "dst_addr", Value: w.DstAddr, Err: err}
	}
	out := Result{
		MsmID:   w.MsmID,
		PrbID:   w.PrbID,
		Time:    time.Unix(w.Timestamp, 0).UTC(),
		Src:     src,
		Dst:     dst,
		ParisID: w.ParisID,
		Hops:    make([]Hop, 0, len(w.Result)),
	}
	for _, wh := range w.Result {
		h := Hop{Index: wh.Hop, Replies: make([]Reply, 0, len(wh.Replies))}
		for _, rep := range wh.Replies {
			if rep.X != "" {
				h.Replies = append(h.Replies, Reply{Timeout: true})
				continue
			}
			// Real Atlas dumps contain error entries ("err"), entries with
			// an address but no RTT (late packets, ICMP errors), and clock
			// artifacts like negative RTTs; none carries a usable delay
			// sample, so they degrade to timeouts rather than rejecting the
			// whole result.
			if len(rep.Err) > 0 || rep.From == "" || rep.RTT == nil || *rep.RTT < 0 {
				h.Replies = append(h.Replies, Reply{Timeout: true})
				continue
			}
			from, err := netip.ParseAddr(rep.From)
			if err != nil {
				return &AddrError{Field: "from", Value: rep.From, Err: err}
			}
			h.Replies = append(h.Replies, Reply{From: from, RTT: *rep.RTT})
		}
		out.Hops = append(out.Hops, h)
	}
	*r = out
	return nil
}

// Writer writes results as JSON Lines.
type Writer struct {
	bw  *bufio.Writer
	buf []byte // reused per-line encode buffer
}

// NewWriter returns a JSONL writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Write appends one result as a single JSON line. It encodes through
// AppendResult into a buffer reused across calls — byte-identical to the
// json.Marshal encoding (TestWriterUsesFastEncoder) without its per-line
// allocations.
func (w *Writer) Write(r Result) error {
	b, err := AppendResult(w.buf[:0], r)
	if err != nil {
		return err
	}
	w.buf = append(b, '\n')
	_, err = w.bw.Write(w.buf)
	return err
}

// Flush flushes buffered output. Call it before closing the underlying
// writer.
func (w *Writer) Flush() error { return w.bw.Flush() }
