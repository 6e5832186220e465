// Package events implements the paper's alarm aggregation and major-event
// detection (§6): alarms are grouped per AS with longest-prefix-match IP→AS
// mapping, each AS gets two severity time series (Σ d(∆) for delay alarms
// and Σ rᵢ for forwarding alarms), and peaks in the robust magnitude
// mag(X) = (X − median)/(1 + 1.4826·MAD) over a one-week sliding window
// (Eq 10) are reported as events. Each bin is scored once, when it closes
// (CloseBins), and every query reads what the closes kept: a bin is
// answered once it is closed, and never before.
package events

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"

	"pinpoint/internal/delay"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ident"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/timeseries"
)

// Config parameterizes the aggregator.
type Config struct {
	BinSize   time.Duration // must match the detectors'; default 1 hour
	Window    time.Duration // magnitude window; paper: one week
	Threshold float64       // |mag| at or above this is an event; default 10
}

func (c Config) withDefaults() Config {
	if c.BinSize == 0 {
		c.BinSize = time.Hour
	}
	if c.Window == 0 {
		c.Window = 7 * 24 * time.Hour
	}
	if c.Threshold == 0 {
		c.Threshold = 10
	}
	return c
}

// Check refuses an event threshold or window the aggregator would not
// honour as given: a threshold that is not positive and finite (0 reads as
// the default, a negative one makes every bin an event, and no magnitude
// reaches a NaN or an infinite one), and a window shorter than one bin or
// not a whole number of bins (the window starts on a bin boundary, so a
// partial bin would silently count as a whole one). A zero BinSize takes
// its default; zero Threshold and Window are refused, and NewAggregator
// checks them after the defaults apply.
func (c Config) Check() error {
	bin := c.withDefaults().BinSize
	switch {
	case !(c.Threshold > 0) || math.IsInf(c.Threshold, 1):
		return fmt.Errorf("event threshold %v: must be positive and finite", c.Threshold)
	case c.Window < bin:
		return fmt.Errorf("event window %v: must be at least one bin (%v)", c.Window, bin)
	case c.Window%bin != 0:
		return fmt.Errorf("event window %v: must be a whole number of bins (%v)", c.Window, bin)
	}
	return nil
}

// Type distinguishes the two alarm families.
type Type int

// Event types.
const (
	DelayChange Type = iota
	ForwardingAnomaly
)

// String implements fmt.Stringer.
func (t Type) String() string {
	if t == DelayChange {
		return "delay-change"
	}
	return "forwarding-anomaly"
}

// Event is one detected major network disruption: a magnitude peak of one
// AS in one bin.
type Event struct {
	ASN       ipmap.ASN
	Bin       time.Time
	Type      Type
	Magnitude float64
}

// Aggregator groups alarms per AS and maintains the severity series.
// It is not safe for concurrent use.
type Aggregator struct {
	cfg   Config
	table *ipmap.Table

	// reg + cache, when set via UseRegistry, short-circuit the per-alarm
	// radix-trie walk: alarm addresses were interned during extraction, so
	// AddrID→ASN resolves through a dense memo after the first lookup.
	reg   *ident.Registry
	cache *ipmap.Cache

	delaySeries map[ipmap.ASN]*timeseries.Series
	fwdSeries   map[ipmap.ASN]*timeseries.Series
	ases        []ipmap.ASN // every AS with a series, sorted

	// scratch is the window buffer of every Eq 10 evaluation.
	scratch timeseries.Scratch

	firstBin time.Time
	haveBin  bool

	// inc is the closed region's magnitude/event read model, advanced by
	// CloseBins (see incremental.go); droppedStale counts the late
	// mutations rejected because closed bins are immutable.
	inc          incState
	droppedStale int
}

// NewAggregator returns an Aggregator resolving addresses with the given
// LPM table (the simulator's announced prefixes, standing in for BGP data).
// It panics on a configuration Check refuses once the defaults apply.
func NewAggregator(cfg Config, table *ipmap.Table) *Aggregator {
	cfg = cfg.withDefaults()
	if err := cfg.Check(); err != nil {
		panic("events: " + err.Error())
	}
	return &Aggregator{
		cfg:         cfg,
		table:       table,
		delaySeries: make(map[ipmap.ASN]*timeseries.Series),
		fwdSeries:   make(map[ipmap.ASN]*timeseries.Series),
		inc:         incState{mag: [2]map[ipmap.ASN][]float64{make(map[ipmap.ASN][]float64), make(map[ipmap.ASN][]float64)}},
	}
}

// Config returns the effective configuration.
func (a *Aggregator) Config() Config { return a.cfg }

// UseRegistry attaches the pipeline's identity layer: subsequent IP→AS
// resolutions are memoized per interned AddrID (one trie walk per distinct
// address ever, instead of one per alarm). core.New wires this up; callers
// constructing a bare Aggregator may skip it and keep the direct path.
func (a *Aggregator) UseRegistry(reg *ident.Registry) {
	a.reg = reg
	a.cache = ipmap.NewCache(a.table)
}

// lookupASN resolves an address to its AS, through the ID-memoized cache
// when a registry is attached (falling back to the trie for addresses the
// pipeline never interned).
func (a *Aggregator) lookupASN(addr netip.Addr) (ipmap.ASN, bool) {
	if a.reg != nil {
		if id, ok := a.reg.LookupAddr(addr); ok {
			return a.cache.Lookup(uint32(id), addr)
		}
	}
	return a.table.Lookup(addr)
}

// ObserveBin tells the aggregator that analysis covered the bin containing
// t, whether or not any alarm fired. Magnitude windows extend back to the
// first observed bin with zeros, so an AS whose very first alarm is the
// event still scores it against a week of quiet — without this, the first
// alarm of a series would always score zero.
func (a *Aggregator) ObserveBin(t time.Time) {
	if a.haveBin && !t.Before(a.firstBin) {
		return // firstBin is a bin start, so t's bin is not before it either
	}
	b := timeseries.Bin(t, a.cfg.BinSize)
	if !a.haveBin || b.Before(a.firstBin) {
		if a.rejectLate(b) {
			return // the span start of closed bins cannot move backwards
		}
		a.firstBin = b
		a.haveBin = true
	}
}

// AddDelayAlarm accumulates a delay-change alarm: its deviation d(∆) is
// added to the series of every AS owning one of the link's two addresses
// ("alarms with IP addresses from different ASs are assigned to multiple
// groups", §6).
func (a *Aggregator) AddDelayAlarm(al delay.Alarm) {
	b := timeseries.Bin(al.Bin, a.cfg.BinSize)
	if a.rejectLate(b) {
		return
	}
	asns := a.asnsOf(al.Link.Near, al.Link.Far)
	for _, asn := range asns {
		a.series(a.delaySeries, asn).Add(al.Bin, al.Deviation)
	}
}

// AddForwardingAlarm accumulates a forwarding alarm: each next hop's
// responsibility score is added to the next hop's AS series. Negative
// scores (devalued hops) and positive scores (newly used hops) cancel out
// when both hops sit in the same AS — the paper's intra-AS rerouting
// mitigation. The unresponsive bucket has no address and is skipped.
func (a *Aggregator) AddForwardingAlarm(al forwarding.Alarm) {
	b := timeseries.Bin(al.Bin, a.cfg.BinSize)
	if a.rejectLate(b) {
		return
	}
	for _, h := range al.Hops {
		if h.Hop == forwarding.Unresponsive || !h.Hop.IsValid() {
			continue
		}
		asn, ok := a.lookupASN(h.Hop)
		if !ok {
			continue
		}
		a.series(a.fwdSeries, asn).Add(al.Bin, h.Responsibility)
	}
}

func (a *Aggregator) asnsOf(addrs ...netip.Addr) []ipmap.ASN {
	var out []ipmap.ASN
	for _, addr := range addrs {
		asn, ok := a.lookupASN(addr)
		if !ok {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == asn {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, asn)
		}
	}
	return out
}

func (a *Aggregator) series(m map[ipmap.ASN]*timeseries.Series, asn ipmap.ASN) *timeseries.Series {
	s := m[asn]
	if s == nil {
		s = timeseries.New(a.cfg.BinSize)
		m[asn] = s
		if i, found := slices.BinarySearch(a.ases, asn); !found {
			a.ases = slices.Insert(a.ases, i, asn)
		}
	}
	return s
}

// ASes returns every AS with at least one alarm, sorted.
func (a *Aggregator) ASes() []ipmap.ASN { return slices.Clone(a.ases) }

// DelaySeries returns the Σ d(∆) series of an AS (nil when it has none).
func (a *Aggregator) DelaySeries(asn ipmap.ASN) *timeseries.Series { return a.delaySeries[asn] }

// DelayMagnitude returns the Eq 10 magnitude of an AS's delay series in
// each closed bin of [from, to). Missing bins count as zero (a quiet hour
// is "no alarms").
func (a *Aggregator) DelayMagnitude(asn ipmap.ASN, from, to time.Time) []timeseries.Point {
	return a.magnitude(a.inc.mag[DelayChange][asn], from, to)
}

// ForwardingMagnitude returns the Eq 10 magnitude of an AS's forwarding
// series in each closed bin of [from, to).
func (a *Aggregator) ForwardingMagnitude(asn ipmap.ASN, from, to time.Time) []timeseries.Point {
	return a.magnitude(a.inc.mag[ForwardingAnomaly][asn], from, to)
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%s %s %s mag=%.1f", e.Bin.Format("2006-01-02T15:04"), e.ASN, e.Type, e.Magnitude)
}
