// Package trace defines the traceroute data model shared by the measurement
// platform (producer) and the detectors (consumers): results, hops, replies,
// link keys, and a JSONL wire format closely modeled on the RIPE Atlas
// traceroute result schema.
//
// The boundary convention of the repository: RTTs cross this package as
// float64 milliseconds (the analysis plane works in ms, like the paper);
// time.Duration is only used inside the simulator.
package trace

import (
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// Reply is one response (or timeout) to one traceroute packet at a given
// hop. Atlas sends three packets per hop, so hops carry up to three replies.
type Reply struct {
	From    netip.Addr // responder address; zero value when Timeout
	RTT     float64    // round-trip time in milliseconds; 0 when Timeout
	Timeout bool       // true when the packet got no response ("x":"*")
}

// Hop is the set of replies for one TTL value.
type Hop struct {
	Index   int // TTL, 1-based
	Replies []Reply
}

// Unresponsive reports whether every packet of the hop timed out.
func (h Hop) Unresponsive() bool {
	for _, r := range h.Replies {
		if !r.Timeout && r.From.IsValid() {
			return false
		}
	}
	return true
}

// Result is one traceroute measurement result.
type Result struct {
	MsmID   int        // measurement ID (one per target, as in Atlas)
	PrbID   int        // probe ID
	Time    time.Time  // when the traceroute started
	Src     netip.Addr // probe address
	Dst     netip.Addr // traceroute target
	ParisID int        // Paris traceroute flow identifier
	Hops    []Hop
}

// Validate checks structural invariants: valid src/dst, hops present with
// ascending 1-based indices.
func (r Result) Validate() error {
	if !r.Src.IsValid() {
		return errors.New("trace: result has invalid source address")
	}
	if !r.Dst.IsValid() {
		return errors.New("trace: result has invalid destination address")
	}
	return checkHops(len(r.Hops), func(i int) int { return r.Hops[i].Index })
}

// checkHops is the hop half of Validate, shared with View.Validate: at least
// one hop, TTLs strictly ascending from above zero.
func checkHops(n int, ttl func(int) int) error {
	if n == 0 {
		return errors.New("trace: result has no hops")
	}
	prev := 0
	for i := 0; i < n; i++ {
		t := ttl(i)
		if t <= prev {
			return fmt.Errorf("trace: hop indices not ascending (%d after %d)", t, prev)
		}
		prev = t
	}
	return nil
}

// LinkKey identifies an IP-level link: an ordered pair of addresses observed
// at adjacent hops (Near closer to the probe). As §2 stresses, this is a
// pair of IP addresses, not necessarily a physical cable. LinkKey is
// comparable and suitable as a map key.
type LinkKey struct {
	Near netip.Addr
	Far  netip.Addr
}

// String renders "near>far".
func (k LinkKey) String() string { return k.Near.String() + ">" + k.Far.String() }

// Valid reports whether both endpoints are valid addresses and differ.
func (k LinkKey) Valid() bool {
	return k.Near.IsValid() && k.Far.IsValid() && k.Near != k.Far
}

// Reverse returns the link with endpoints swapped.
func (k LinkKey) Reverse() LinkKey { return LinkKey{Near: k.Far, Far: k.Near} }

// AdjacentHopPair is a pair of consecutive responsive hops of one result,
// used by the delay analyzer to form differential RTT samples.
type AdjacentHopPair struct {
	Near, Far Hop
}

// AdjacentPairs returns consecutive hop pairs with strictly consecutive TTL
// indices (a hop missing from the result breaks adjacency, exactly as an
// unresponsive router hides its links from the paper's delay analysis). The
// extraction kernels (delay §4.2.1, forwarding §5.1) apply the same rule to
// a View's hops; changing it means changing it there too.
func (r Result) AdjacentPairs() []AdjacentHopPair {
	var out []AdjacentHopPair
	for i := 0; i+1 < len(r.Hops); i++ {
		near, far := r.Hops[i].Index, r.Hops[i+1].Index
		if near < far && far == near+1 { // near < far: Index+1 wraps at MaxInt
			out = append(out, AdjacentHopPair{Near: r.Hops[i], Far: r.Hops[i+1]})
		}
	}
	return out
}
