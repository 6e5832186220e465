package trace

import (
	"errors"
	"net/netip"
	"time"
)

// ViewHop is one hop of a View: its TTL and the window [Start, End) of its
// replies in the From/RTT columns. TTL keeps the wire's int width, so hop
// numbers differing only above bit 31 never become adjacent by narrowing.
type ViewHop struct {
	TTL        int
	Start, End int32
}

// View is the interned form of one traceroute result — what the detectors
// consume. Addresses are dense ids from the identity layer (ident.AddrID
// values; uint32 here because ident imports this package), replies are two
// flat pointer-free columns. From[i] == 0 marks a reply that timed out or
// carried no valid address; its RTT is then meaningless. A View has two
// producers — ident.Interner.View from a Result, Decoder.DecodeView from a
// wire line — and both reuse the columns' capacity, allocating nothing in
// steady state.
type View struct {
	Time time.Time
	Prb  int    // probe id
	Dst  uint32 // traceroute target; 0 when the result carried none
	Hops []ViewHop
	From []uint32
	RTT  []float64
}

// Fill rebuilds v from r, mapping the destination and every responding
// address through id; a reply flagged Timeout or without a valid address
// gets 0 whatever else it carries. id is called once per change of address
// along the replies: a hop's three packets usually meet one router.
func (v *View) Fill(r *Result, id func(netip.Addr) uint32) {
	v.Time, v.Prb, v.Dst = r.Time, r.PrbID, 0
	if r.Dst.IsValid() {
		v.Dst = id(r.Dst)
	}
	v.Hops, v.From, v.RTT = v.Hops[:0], v.From[:0], v.RTT[:0]
	var prev netip.Addr
	var prevID uint32
	for i := range r.Hops {
		h := &r.Hops[i]
		start := int32(len(v.From))
		for _, rep := range h.Replies {
			from := uint32(0)
			if !rep.Timeout && rep.From.IsValid() {
				if rep.From != prev {
					prev, prevID = rep.From, id(rep.From)
				}
				from = prevID
			}
			v.From = append(v.From, from)
			v.RTT = append(v.RTT, rep.RTT)
		}
		v.Hops = append(v.Hops, ViewHop{TTL: h.Index, Start: start, End: int32(len(v.From))})
	}
}

// Validate is Result.Validate for a view. A line with a bad src_addr never
// decodes, so of the endpoints only the destination is left to check.
func (v *View) Validate() error {
	if v.Dst == 0 {
		return errors.New("trace: result has invalid destination address")
	}
	return checkHops(len(v.Hops), func(i int) int { return v.Hops[i].TTL })
}
