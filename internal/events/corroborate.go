package events

// Empathy-style cross-traceroute corroboration (cf. Di Bartolomeo et al.,
// "traceroute empathy"): a magnitude threshold crossing is reported as an
// event only when enough *distinct* alarm sources — links for the delay
// series, implicated next-hop interfaces for the forwarding series —
// contributed to that AS in the event bin. Single-source peaks are exactly
// what measurement artifacts (a lying router funneling forged hops through
// one stale address) produce, while real disruptions are seen from many
// vantage points or spread over many detour interfaces at once.
//
// The pass is a pure filter over event emission: series and magnitudes are
// untouched, and the one per-bin evaluation (evalBin, run by CloseBins and
// by queries outside the closed region) consults corroborated() for every
// threshold crossing. With Corroborate < 2 (the default) nothing is
// recorded and nothing is filtered — existing golden outputs are unchanged.

import (
	"net/netip"
	"time"

	"pinpoint/internal/hash"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/timeseries"
)

// corrTypeKey identifies one corroboration ledger: one AS's alarm sources
// for one series type.
type corrTypeKey struct {
	asn ipmap.ASN
	typ Type
}

// corrSet is the source ledger of one (AS, type): which distinct sources
// fired in each bin, when each source was first seen, and the best
// single-alarm vantage count (distinct probe ASes behind one alarm) per
// bin.
type corrSet struct {
	perBin  map[int64]map[uint64]struct{} // bin unix → distinct source hashes
	first   map[uint64]int64              // source hash → first bin unix
	vantage map[int64]int                 // bin unix → max per-alarm vantage count
}

// corrAddrHash folds an alarm-source address into a stable 64-bit value.
func corrAddrHash(a netip.Addr) uint64 {
	b := a.As16()
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[i+8])
	}
	return hash.Fold(0xc0_44_0b, hi, lo)
}

// recordSource notes that the given source contributed an alarm to the
// (asn, typ) series in the bin containing t. vantage is the number of
// distinct probe ASes already agreeing within that one alarm (delay alarms
// aggregate many vantage points by construction; forwarding alarms pass 1).
// surge marks a positive contribution: only surge sources count toward
// per-bin surge corroboration, while sources of either sign enter the
// first-seen ledger that backs dip corroboration. No-op unless
// corroboration is on.
func (a *Aggregator) recordSource(asn ipmap.ASN, typ Type, t time.Time, src uint64, vantage int, surge bool) {
	if a.cfg.Corroborate < 2 {
		return
	}
	if a.corr == nil {
		a.corr = make(map[corrTypeKey]*corrSet)
	}
	key := corrTypeKey{asn: asn, typ: typ}
	cs := a.corr[key]
	if cs == nil {
		cs = &corrSet{
			perBin:  make(map[int64]map[uint64]struct{}),
			first:   make(map[uint64]int64),
			vantage: make(map[int64]int),
		}
		a.corr[key] = cs
	}
	bin := timeseries.Bin(t, a.cfg.BinSize).Unix()
	if surge {
		set := cs.perBin[bin]
		if set == nil {
			set = make(map[uint64]struct{})
			cs.perBin[bin] = set
		}
		set[src] = struct{}{}
		if vantage > cs.vantage[bin] {
			cs.vantage[bin] = vantage
		}
	}
	if fb, ok := cs.first[src]; !ok || bin < fb {
		cs.first[src] = bin
	}
}

// corroborated reports whether a threshold crossing of the (asn, typ)
// series at bin (with the given magnitude) survives the corroboration
// filter. Positive crossings — excess alarms — need Corroborate distinct
// sources alarming *in that bin*, or one alarm whose own vantage count
// (distinct probe ASes agreeing on the same deviation) reaches Corroborate:
// a delay alarm triangulated by many probe ASes is cross-traceroute
// corroboration even when only one link is implicated. Negative crossings
// (forwarding dips, where the signal is the disappearance of
// routinely-seen next hops) have no alarms in the dip bin by nature; they
// need the AS's series to have been built from Corroborate distinct
// sources by then, so a series fed by a single lying router can never
// produce a believable dip either.
func (a *Aggregator) corroborated(asn ipmap.ASN, typ Type, bin time.Time, mag float64) bool {
	if a.cfg.Corroborate < 2 {
		return true
	}
	cs := a.corr[corrTypeKey{asn: asn, typ: typ}]
	if cs == nil {
		return false
	}
	b := bin.Unix()
	if mag >= 0 {
		return len(cs.perBin[b]) >= a.cfg.Corroborate || cs.vantage[b] >= a.cfg.Corroborate
	}
	// Count sources first seen at or before the dip bin: identical whether
	// evaluated mid-stream (CloseBins, alarms so far all ≤ b by the
	// chronological contract) or after the fact (a query past the region).
	n := 0
	for _, fb := range cs.first {
		if fb <= b {
			n++
			if n >= a.cfg.Corroborate {
				return true
			}
		}
	}
	return false
}
