package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/experiments"
	"pinpoint/internal/forwarding"
	pphash "pinpoint/internal/hash"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

// scaleDef sizes the fixtures and the run. "full" is the benchmark;
// "smoke" is the < 10 s variant the package test runs.
type scaleDef struct {
	Name            string
	Topo            netsim.TopoConfig // Seed is filled from -seed
	Hours           int               // internet campaign length
	ProbesPerAnchor int
	DDoS            experiments.Scale
	Setups          int     // set-ups per untraced run; setup_s is their median
	Seconds         float64 // timed passes run this long (-seconds overrides)
	MinPasses       int     // timed passes per run at least
	WarmUp          bool
	SampleHours     int // pre-decoded prefix the layer probes run on
}

var scales = map[string]scaleDef{
	// 348 ASes, ~1,050 links, 300 probes, 4 builtin + 40 anchoring
	// measurements: 89,600 results and ~105 MB of NDJSON per 16 h. ROADMAP
	// asks for a production-shaped topology rather than the 27-AS toy; the
	// window is what fits three set-ups and ten passes in one driver run.
	"full": {
		Name: "full",
		Topo: netsim.TopoConfig{Tier1: 8, Transit: 40, Stub: 300, RoutersPerTier1: 6,
			IXPs: 4, IXPMembers: 12, Roots: 4, RootInstances: 8, Anchors: 40},
		Hours: 16, ProbesPerAnchor: 20, DDoS: experiments.Full,
		Setups: 3, Seconds: 15, MinPasses: 3, WarmUp: true, SampleHours: 8,
	},
	"smoke": {
		Name: "smoke",
		Topo: netsim.TopoConfig{Tier1: 3, Transit: 8, Stub: 40, RoutersPerTier1: 4,
			IXPs: 1, IXPMembers: 6, Roots: 2, RootInstances: 4, Anchors: 8},
		Hours: 6, ProbesPerAnchor: 10, DDoS: experiments.Quick,
		Setups: 1, Seconds: 0, MinPasses: 2, WarmUp: false, SampleHours: 6,
	},
}

// campaignStart anchors the internet fixture's window (any hour-aligned
// instant works; the detectors only see offsets).
var campaignStart = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

// check is one correctness assertion; a miss is a failed op and a non-zero
// exit.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// newPlatform registers the measurement campaign the case studies use
// (internal/experiments' newCasePlatform): one probe per stub AS, a builtin
// measurement per root, an anchoring measurement per anchor from perAnchor
// probes.
func newPlatform(n *netsim.Net, topo *netsim.Topo, seed uint64, perAnchor int) *atlas.Platform {
	p := atlas.NewPlatform(n, seed, netsim.TracerouteOpts{})
	probes := p.AddProbes(topo.ProbeSites())
	for _, rt := range topo.Roots {
		p.AddBuiltin(rt.Addr)
	}
	for i, an := range topo.Anchors {
		var ids []int
		for j := 0; j < perAnchor && j < len(probes); j++ {
			ids = append(ids, probes[(i*7+j)%len(probes)].ID)
		}
		p.AddAnchoring(an.Addr, ids)
	}
	return p
}

// disruption is one injected ground-truth event and where its alarm must
// appear.
type disruption struct {
	Name       string
	Start, End time.Time
	Link       [2]netip.Addr // congestion: the link's two interface addresses
	Router     netip.Addr    // blackhole: the dropping interface
}

// planDisruptions picks, on the quiet network, the tier-1<->transit link
// and the IXP interface that the most probe ASes traverse, so the injected
// events land where the detectors have enough diversity to evaluate them
// (the same planning internal/experiments does for its case studies).
func planDisruptions(quiet *netsim.Net, topo *netsim.Topo, plat *atlas.Platform, at time.Time) (link [2]netsim.RouterID, iface netsim.RouterID, err error) {
	type dirLink [2]netsim.RouterID
	linkASes := map[dirLink]map[ipmap.ASN]struct{}{}
	transitASes := map[netsim.RouterID]map[ipmap.ASN]struct{}{}
	add := func(m map[ipmap.ASN]struct{}, asn ipmap.ASN) map[ipmap.ASN]struct{} {
		if m == nil {
			m = map[ipmap.ASN]struct{}{}
		}
		m[asn] = struct{}{}
		return m
	}
	for _, m := range plat.Measurements() {
		for _, id := range m.Probes {
			pr, _ := plat.Probe(id)
			path, ok := quiet.ForwardPath(pr.Router, m.Target, at, 0)
			if !ok {
				continue
			}
			for i := 0; i+1 < len(path); i++ {
				l := dirLink{path[i], path[i+1]}
				linkASes[l] = add(linkASes[l], pr.ASN)
				if i > 0 {
					transitASes[path[i]] = add(transitASes[path[i]], pr.ASN)
				}
			}
		}
	}
	tier := func(r netsim.RouterID) int {
		asn := quiet.Router(r).AS
		switch {
		case asn >= netsim.Tier1ASNBase && asn < netsim.Tier1ASNBase+ipmap.ASN(len(topo.Tier1)):
			return 1
		case asn >= netsim.TransitASNBase && asn < netsim.TransitASNBase+ipmap.ASN(len(topo.Transit)):
			return 2
		}
		return 0
	}
	links := make([]dirLink, 0, len(linkASes))
	for l := range linkASes {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	// Prefer a tier-1<->transit link; a topology too small to route three
	// probe ASes over one (the smoke scale, some seeds) falls back to the
	// busiest link between any two backbone ASes.
	best := 0
	for _, wantSum := range []int{3, 0} {
		for _, l := range links {
			a, z := tier(l[0]), tier(l[1])
			if a == 0 || z == 0 || quiet.Router(l[0]).AS == quiet.Router(l[1]).AS {
				continue
			}
			if wantSum != 0 && a+z != wantSum { // exactly one tier-1 end and one transit end
				continue
			}
			if n := len(linkASes[l]); n > best {
				best, link = n, l
			}
		}
		if best >= 3 {
			break
		}
	}
	if best < 3 {
		return link, 0, fmt.Errorf("no backbone link is traversed by 3 probe ASes (best %d)", best)
	}
	best = 0
	for _, ixp := range topo.IXPs {
		for _, r := range ixp.Ifaces {
			if n := len(transitASes[r]); n > best {
				best, iface = n, r
			}
		}
	}
	if best < 1 {
		return link, 0, fmt.Errorf("no IXP interface carries transit traffic")
	}
	return link, iface, nil
}

// digester folds alarms and events into one sha256, floats by their bits,
// so two runs agree exactly or not at all.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) f(v float64) uint64 { return math.Float64bits(v) }

func (d *digester) delay(al delay.Alarm) {
	fmt.Fprintf(d.h, "D|%d|%s|%x|%x|%x|%x|%d|%d\n", al.Bin.Unix(), al.Link,
		d.f(al.Observed.Median), d.f(al.Reference.Median), d.f(al.Deviation), d.f(al.DiffMS), al.Probes, al.ASes)
}

func (d *digester) fwd(al forwarding.Alarm) {
	fmt.Fprintf(d.h, "F|%d|%s|%s|%x|%d", al.Bin.Unix(), al.Router, al.Dst, d.f(al.Rho), len(al.Hops))
	for _, h := range al.Hops {
		fmt.Fprintf(d.h, "|%s:%x", h.Hop, d.f(h.Responsibility))
	}
	fmt.Fprintln(d.h)
}

func (d *digester) event(e events.Event) {
	fmt.Fprintf(d.h, "E|%d|%d|%d|%x\n", e.ASN, e.Bin.Unix(), e.Type, d.f(e.Magnitude))
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// outcome is what one finished analyzer produced; passes are checked
// against the Workers=1 reference outcome.
type outcome struct {
	Digest  string
	Results int
	Delay   []delay.Alarm
	Fwd     []forwarding.Alarm
	Events  []events.Event
}

// outcomeOf reads a flushed analyzer (RetainAlarms must be set).
func outcomeOf(a *core.Analyzer, from, to time.Time) outcome {
	o := outcome{
		Results: a.Results(),
		Delay:   a.DelayAlarms(),
		Fwd:     a.ForwardingAlarms(),
		Events:  a.Aggregator().Events(from, to),
	}
	d := newDigester()
	for _, al := range o.Delay {
		d.delay(al)
	}
	for _, al := range o.Fwd {
		d.fwd(al)
	}
	for _, e := range o.Events {
		d.event(e)
	}
	o.Digest = d.sum()
	return o
}

// internetFx is the seeded synthetic-Internet campaign: the network with
// its two disruptions, the measurement platform, optionally the campaign
// as an NDJSON file, and the Workers=1 reference outcome.
type internetFx struct {
	sc         scaleDef
	topo       *netsim.Topo
	net        *netsim.Net
	plat       *atlas.Platform
	start, end time.Time
	truth      []disruption

	ndjson     string // path; empty when no file was asked for
	ndjsonSize int64
	ndjsonSHA  string // only when hashing was asked for
	encodeDur  time.Duration

	ref    outcome
	checks []check
}

// buildInternet generates the topology from seed, plans and injects the
// disruptions, then runs the campaign once with genWorkers generator
// workers: every chunk is (optionally) appended to the NDJSON file through
// trace.AppendResult and fed to a Workers=1 analyzer, whose outcome is the
// reference the timed passes are checked against.
func buildInternet(sc scaleDef, seed uint64, genWorkers int, dir string, withFile, withSHA bool) (*internetFx, error) {
	cfg := sc.Topo
	cfg.Seed = seed
	topo, err := netsim.Generate(cfg)
	if err != nil {
		return nil, err
	}
	quiet, err := topo.Build(nil)
	if err != nil {
		return nil, err
	}
	fx := &internetFx{sc: sc, topo: topo, start: campaignStart}
	fx.end = fx.start.Add(time.Duration(sc.Hours) * time.Hour)

	link, iface, err := planDisruptions(quiet, topo, newPlatform(quiet, topo, seed, sc.ProbesPerAnchor), fx.start)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	half := time.Duration(sc.Hours/2) * time.Hour
	dur := time.Duration(max(2, sc.Hours/5)) * time.Hour
	cong := netsim.Event{
		Name: "bench-congestion", Kind: netsim.EventCongestion,
		From: link[0], To: link[1], Both: true, ExtraDelayMS: 40,
		Start: fx.start.Add(half), End: fx.start.Add(half + dur),
	}
	hole := netsim.Event{
		Name: "bench-blackhole", Kind: netsim.EventBlackhole, Router: iface, Loss: 1,
		Start: fx.start.Add(half + time.Hour), End: fx.start.Add(half + time.Hour + dur),
	}
	if hole.End.After(fx.end) {
		hole.End = fx.end
	}
	fx.net, err = topo.Build(netsim.NewScenario(cong, hole))
	if err != nil {
		return nil, err
	}
	fx.truth = []disruption{
		{Name: cong.Name, Start: cong.Start, End: cong.End,
			Link: [2]netip.Addr{fx.net.Router(link[0]).Addr, fx.net.Router(link[1]).Addr}},
		{Name: hole.Name, Start: hole.Start, End: hole.End, Router: fx.net.Router(iface).Addr},
	}
	fx.plat = newPlatform(fx.net, topo, seed, sc.ProbesPerAnchor)
	fx.plat.SetWorkers(genWorkers)

	var (
		f   *os.File
		bw  *bufio.Writer
		sha hash.Hash
		buf []byte
	)
	if withFile {
		fx.ndjson = filepath.Join(dir, fmt.Sprintf("internet-%d.ndjson", seed))
		if f, err = os.Create(fx.ndjson); err != nil {
			return nil, err
		}
		defer f.Close()
		var w io.Writer = f
		if withSHA {
			sha = sha256.New()
			w = io.MultiWriter(f, sha)
		}
		bw = bufio.NewWriterSize(w, 1<<20)
	}
	ref := core.New(core.Config{Workers: 1, RetainAlarms: true}, fx.plat.ProbeASN, fx.net.Prefixes())
	defer ref.Close()
	err = fx.plat.RunChunks(context.Background(), fx.start, fx.end, 0, func(rs []trace.Result) error {
		if bw != nil {
			t0 := time.Now()
			buf = buf[:0]
			for _, r := range rs {
				var err error
				if buf, err = trace.AppendResult(buf, r); err != nil {
					return err
				}
				buf = append(buf, '\n')
			}
			fx.encodeDur += time.Since(t0)
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			fx.ndjsonSize += int64(len(buf))
		}
		ref.ObserveBatch(rs)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("generating campaign: %w", err)
	}
	if bw != nil {
		if err := bw.Flush(); err != nil {
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		if sha != nil {
			fx.ndjsonSHA = hex.EncodeToString(sha.Sum(nil))
		}
	}
	ref.Flush()
	fx.ref = outcomeOf(ref, fx.start, fx.end)
	fx.checks = fx.truthChecks(fx.ref)
	return fx, nil
}

// truthChecks asserts each injected disruption raised at least one alarm
// inside its window: a forwarding alarm at the dropping router, a delay
// alarm on a link that has one of the congested link's two interfaces as an
// end. The congested pair itself is not always the link that alarms: the
// differential RTT of X>Near shifts as much when Near's replies cross the
// congested link on their way back (about one seed in a hundred alarms only
// there), which is the adjacent-link ambiguity the paper describes.
func (fx *internetFx) truthChecks(o outcome) []check {
	inWin := func(bin time.Time, d disruption) bool {
		return !bin.Before(d.Start.Truncate(time.Hour)) && bin.Before(d.End)
	}
	var out []check
	for _, d := range fx.truth {
		n := 0
		if d.Router.IsValid() {
			for _, al := range o.Fwd {
				if inWin(al.Bin, d) && al.Router == d.Router {
					n++
				}
			}
		} else {
			for _, al := range o.Delay {
				touches := func(a netip.Addr) bool { return a == d.Link[0] || a == d.Link[1] }
				if inWin(al.Bin, d) && (touches(al.Link.Near) || touches(al.Link.Far)) {
					n++
				}
			}
		}
		out = append(out, check{Name: "truth." + d.Name, OK: n > 0,
			Detail: fmt.Sprintf("%d alarms at the disrupted element inside its window", n)})
	}
	return out
}

func (fx *internetFx) results() int { return fx.ref.Results }

func (fx *internetFx) close() {
	if fx.ndjson != "" {
		os.Remove(fx.ndjson)
	}
}

// ddosFx is the §7.1 DDoS case study collected into memory and cut into
// the batches the IHR chain is fed with.
type ddosFx struct {
	c    *experiments.Case
	plat *atlas.Platform
	rs   []trace.Result

	// batches are bin-aligned slices of rs of at most 512 results; the
	// first result of every new bin is alone in its batch, so the call
	// that closes a bin is exactly one ObserveBatch whose start can be
	// timed. boundary[i] marks those one-result batches.
	batches  [][]trace.Result
	boundary []bool

	ref    outcome
	checks []check
}

const chainBatch = 512

// buildDDoS builds the case (topology and attack plan are the case study's
// own), re-seeds its measurement noise from seed, collects the campaign and
// runs the Workers=1 reference pass.
func buildDDoS(sc scaleDef, seed uint64, genWorkers int) (*ddosFx, error) {
	c, err := experiments.NewCase("ddos", sc.DDoS)
	if err != nil {
		return nil, err
	}
	fx := &ddosFx{c: c}
	fx.plat = newPlatform(c.Net, c.Topo, pphash.Fold(seed, 0xdd05), 10)
	fx.plat.SetWorkers(genWorkers)
	if fx.rs, err = fx.plat.Collect(c.Start, c.End); err != nil {
		return nil, fmt.Errorf("collecting ddos campaign: %w", err)
	}
	fx.cut()

	ref := core.New(core.Config{Workers: 1, RetainAlarms: true}, fx.plat.ProbeASN, c.Net.Prefixes())
	defer ref.Close()
	for _, b := range fx.batches {
		ref.ObserveBatch(b)
	}
	ref.Flush()
	fx.ref = outcomeOf(ref, c.Start, c.End)
	for i, w := range c.EventWindows {
		n := 0
		for _, e := range fx.ref.Events {
			if !e.Bin.Before(w[0].Truncate(time.Hour)) && e.Bin.Before(w[1]) {
				n++
			}
		}
		fx.checks = append(fx.checks, check{Name: fmt.Sprintf("truth.ddos_window_%d", i+1), OK: n > 0,
			Detail: fmt.Sprintf("%d events overlap the attack window", n)})
	}
	return fx, nil
}

func (fx *ddosFx) cut() {
	bin := func(r trace.Result) int64 { return r.Time.Unix() / 3600 }
	i := 0
	for i < len(fx.rs) {
		if i > 0 && bin(fx.rs[i]) != bin(fx.rs[i-1]) {
			fx.batches = append(fx.batches, fx.rs[i:i+1])
			fx.boundary = append(fx.boundary, true)
			i++
			continue
		}
		j := i + 1
		for j < len(fx.rs) && j-i < chainBatch && bin(fx.rs[j]) == bin(fx.rs[i]) {
			j++
		}
		fx.batches = append(fx.batches, fx.rs[i:j])
		fx.boundary = append(fx.boundary, false)
		i = j
	}
}

func (fx *ddosFx) results() int { return len(fx.rs) }
