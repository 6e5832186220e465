package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ingest"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

// relationRun is what one replay of a relation reports, with every time and
// ASN mapped back through the run's relabelling; durations and the payload
// byte count are zeroed.
type relationRun struct {
	delay      []delay.Alarm
	fwd        []forwarding.Alarm
	events     []events.Event
	ases       []ipmap.ASN
	delayMag   map[ipmap.ASN][]timeseries.Point
	fwdMag     map[ipmap.ASN][]timeseries.Point
	st         ingest.Stats
	delayClose delay.CloseStats
	fwdClose   forwarding.CloseStats
	results    int
	closed     int
	links      int
	routers    int
}

// relabel is one metamorphic rewrite of a case dump: every timestamp moves
// shift later, every probe ID p becomes prb(p), every ASN a, in the probes'
// ASes and in the prefix table, becomes asn(a), and every IPv4 address, in
// the results and in the prefix table, moves octet4 /8s up and then, with
// v6, into 2001:db8::/96 with its 32 bits low. asnBack undoes asn on the
// outputs, addrBack undoes addr. Adding to the first octet keeps every
// prefix of /8 or longer a prefix, the family move keeps every prefix one
// (96 bits longer), and both keep address order, which the detectors'
// close order (and so the order in which the events stage sums floats)
// follows.
type relabel struct {
	shift        time.Duration
	prb          func(int) int
	asn, asnBack func(ipmap.ASN) ipmap.ASN
	octet4       byte
	v6           bool
}

// docV6 is the /96 the family relabelling maps IPv4 into.
var docV6 = netip.MustParsePrefix("2001:db8::/96")

// moveAddr moves an IPv4 address n /8s up (back down with -n); other
// addresses stay.
func moveAddr(a netip.Addr, n byte) netip.Addr {
	if !a.Is4() || n == 0 {
		return a
	}
	b := a.As4()
	b[0] += n
	return netip.AddrFrom4(b)
}

// addr relabels one address of the dump or the prefix table.
func (rel relabel) addr(a netip.Addr) netip.Addr {
	a = moveAddr(a, rel.octet4)
	if !rel.v6 || !a.Is4() {
		return a
	}
	b := docV6.Addr().As16()
	v4 := a.As4()
	copy(b[12:], v4[:])
	return netip.AddrFrom16(b)
}

// addrBack maps an output address back to the dump's own.
func (rel relabel) addrBack(a netip.Addr) netip.Addr {
	if rel.v6 && docV6.Contains(a) {
		b := a.As16()
		a = netip.AddrFrom4([4]byte(b[12:]))
	}
	return moveAddr(a, -rel.octet4)
}

// prefix relabels one prefix of the table.
func (rel relabel) prefix(p netip.Prefix) netip.Prefix {
	bits := p.Bits()
	if rel.v6 && p.Addr().Is4() {
		bits += docV6.Bits()
	}
	return netip.PrefixFrom(rel.addr(p.Addr()), bits)
}

// result rewrites one generated result; the hops are copied, never shared
// with the generator's.
func (rel relabel) result(r trace.Result) trace.Result {
	r.Time, r.PrbID = r.Time.Add(rel.shift), rel.prb(r.PrbID)
	r.Src, r.Dst = rel.addr(r.Src), rel.addr(r.Dst)
	hops := make([]trace.Hop, len(r.Hops))
	for i, h := range r.Hops {
		hops[i] = trace.Hop{Index: h.Index, Replies: slices.Clone(h.Replies)}
		for j := range hops[i].Replies {
			hops[i].Replies[j].From = rel.addr(hops[i].Replies[j].From)
		}
	}
	r.Hops = hops
	return r
}

// relabelled is a case whose dump is rewritten by rel.
type relabelled struct {
	c   *Case
	rel relabel
}

// identity is the relabelling that changes nothing.
var identity = relabel{
	prb:     func(p int) int { return p },
	asn:     func(a ipmap.ASN) ipmap.ASN { return a },
	asnBack: func(a ipmap.ASN) ipmap.ASN { return a },
}

// TestTimeShiftRelation is the time-shift invariance: the paper's methods
// read bins relative to each other, never the calendar, so moving every
// timestamp of a dump k whole bins later moves every output k bins later
// and changes nothing else. The shift puts the case's first event window
// at 23:00 on Dec 31, so the replay crosses a year boundary (the shifted
// timestamps go through the wire scanner). §4.3's thinning seeds on the
// bin's Unix time, so the relation is exact only where no link-bin is
// thinned; relationRuns asserts that none is.
func TestTimeShiftRelation(t *testing.T) {
	checkRelation(t, relationCases, netsim.Artifacts{}, func(t *testing.T, c *Case) relabel {
		w0 := c.EventWindows[0][0]
		k := time.Date(w0.Year(), 12, 31, 23, 0, 0, 0, time.UTC).Sub(w0) / time.Hour
		rel := identity
		rel.shift = k * time.Hour
		if w0.Add(rel.shift).Year() == c.EventWindows[0][1].Add(rel.shift).Year() {
			t.Fatalf("shifted window %v does not cross a year boundary", w0.Add(rel.shift))
		}
		return rel
	})
}

// TestRenumberRelation is the renumbering invariance: §4.3 and §6 read
// probe IDs and ASNs only through counts and order, never through their
// values, so an order-preserving renaming of both (probe p → 3p+100, AS a →
// 3a+70000, which puts every AS past the 16-bit range the cases use)
// leaves every output equal once the ASNs are renamed back.
func TestRenumberRelation(t *testing.T) {
	checkRelation(t, relationCases, netsim.Artifacts{}, func(*testing.T, *Case) relabel {
		return relabel{
			prb:     func(p int) int { return 3*p + 100 },
			asn:     func(a ipmap.ASN) ipmap.ASN { return 3*a + 70000 },
			asnBack: func(a ipmap.ASN) ipmap.ASN { return (a - 70000) / 3 },
		}
	})
}

// TestFamilyRelabelRelation is the family-relabelling invariance (§2: one
// system for both address families): every IPv4 address of the dump and of
// the prefix table moves into 2001:db8::/96 with its 32 bits low, an
// order-preserving map, and every alarm (d(∆), ρ and responsibilities
// included), event, AS and magnitude of the IPv6 replay, mapped back,
// equals the IPv4 run's bit for bit. §4.3's thinning seeds on the link's
// address bytes, so the relation holds only where nothing is thinned:
// replay asserts that no link-bin is, in both runs. It runs every case of
// the catalogue.
func TestFamilyRelabelRelation(t *testing.T) {
	checkRelation(t, []string{"ddos", "ixp", "leak", "quiet"}, netsim.Artifacts{}, v6Relabel)
}

// TestFamilyRelabelUnderArtifacts is the family relabelling over dumps full
// of traceroute artifacts: every case of the catalogue under the storm mix,
// which draws all five of Viger et al.'s classes at once (per-packet
// multipath, mid-trace route flips, reordered replies, lying hops and
// aliased interfaces). None of them reads an address's family, so the IPv6 replay
// must still equal the IPv4 run bit for bit, and replay still asserts that
// nothing is thinned.
func TestFamilyRelabelUnderArtifacts(t *testing.T) {
	storm := ArtifactMixes()[3]
	if storm.Name != "storm" {
		t.Fatalf("mix 3 is %q, want storm", storm.Name)
	}
	checkRelation(t, []string{"ddos", "ixp", "leak", "quiet"}, storm.Art, v6Relabel)
}

// v6Relabel moves every IPv4 address into 2001:db8::/96.
func v6Relabel(*testing.T, *Case) relabel {
	rel := identity
	rel.v6 = true
	return rel
}

// TestDisjointUnionRelation is the disjoint-union invariance: §4 keys its
// state on links and routers and §6 on ASes, so two measurement campaigns
// that share no address, ASN or probe and run side by side in one stream
// must each see exactly what they see alone. The quick leak case is moved
// onto disjoint names (every IPv4 address one /8 up, AS a → a+70000, probe
// p → p+100000) and onto the ddos case's start, the two dumps are merged
// into one time-ordered stream, and within each case's window every alarm,
// event, AS and magnitude point of the merged replay, mapped back, must
// equal that case's solo replay — with one engine shard and with two.
func TestDisjointUnionRelation(t *testing.T) {
	ddos, err := NewCase("ddos", Quick)
	if err != nil {
		t.Fatal(err)
	}
	leak, err := NewCase("leak", Quick)
	if err != nil {
		t.Fatal(err)
	}
	moved := relabel{
		shift:   ddos.Start.Sub(leak.Start),
		prb:     func(p int) int { return p + 100000 },
		asn:     func(a ipmap.ASN) ipmap.ASN { return a + 70000 },
		asnBack: func(a ipmap.ASN) ipmap.ASN { return a - 70000 },
		octet4:  1,
	}
	parts := []relabelled{{ddos, identity}, {leak, moved}}

	dir := t.TempDir()
	var merged []trace.Result
	addrs := [2]map[netip.Addr]bool{}
	asns := [2]map[ipmap.ASN]bool{}
	solo := [2]string{}
	for k, rc := range parts {
		addrs[k], asns[k] = map[netip.Addr]bool{}, map[ipmap.ASN]bool{}
		for _, e := range rc.c.Net.Prefixes().Entries() {
			asns[k][rc.rel.asn(e.ASN)] = true
		}
		for _, p := range rc.c.Platform.Probes() {
			asns[k][rc.rel.asn(p.ASN)] = true
		}
		solo[k] = filepath.Join(dir, rc.c.Name+".ndjson")
		f, err := os.Create(solo[k])
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w := trace.NewWriter(f)
		if err := rc.c.Platform.Run(rc.c.Start, rc.c.End, func(r trace.Result) error {
			if err := w.Write(r); err != nil {
				return err
			}
			r = rc.rel.result(r)
			for _, a := range []netip.Addr{r.Src, r.Dst} {
				addrs[k][a] = true
			}
			for _, h := range r.Hops {
				for _, rp := range h.Replies {
					addrs[k][rp.From] = true
				}
			}
			merged = append(merged, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	delete(addrs[0], netip.Addr{})
	delete(addrs[1], netip.Addr{})
	for a := range addrs[1] {
		if addrs[0][a] {
			t.Fatalf("address %v is in both cases", a)
		}
	}
	for a := range asns[1] {
		if asns[0][a] {
			t.Fatalf("%v is in both cases", a)
		}
	}
	probes := map[int]bool{}
	for _, p := range ddos.Platform.Probes() {
		probes[p.ID] = true
	}
	for _, p := range leak.Platform.Probes() {
		if probes[moved.prb(p.ID)] {
			t.Fatalf("probe %d is in both cases", moved.prb(p.ID))
		}
	}
	// A stable sort keeps each case's own result order.
	slices.SortStableFunc(merged, func(a, b trace.Result) int { return a.Time.Compare(b.Time) })
	union := filepath.Join(dir, "union.ndjson")
	f, err := os.Create(union)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewWriter(f)
	for _, r := range merged {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			cfg := core.Config{RetainAlarms: true, Workers: w}
			u, _ := replay(t, union, cfg, parts...)
			defer u.Close()
			var delayAlarms, fwdAlarms, evs int
			for k, rc := range parts {
				a, _ := replay(t, solo[k], cfg, relabelled{rc.c, identity})
				want := outputs(t, a, relabelled{rc.c, identity}, func(netip.Addr) bool { return true }, func(ipmap.ASN) bool { return true })
				a.Close()
				got := outputs(t, u, rc, func(a netip.Addr) bool { return addrs[k][a] }, func(a ipmap.ASN) bool { return asns[k][a] })
				delayAlarms, fwdAlarms, evs = delayAlarms+len(want.delay), fwdAlarms+len(want.fwd), evs+len(want.events)
				for _, d := range []struct {
					what      string
					want, got any
				}{
					{"delay alarms", want.delay, got.delay},
					{"forwarding alarms", want.fwd, got.fwd},
					{"events", want.events, got.events},
					{"ASes", want.ases, got.ases},
					{"delay magnitudes", want.delayMag, got.delayMag},
					{"forwarding magnitudes", want.fwdMag, got.fwdMag},
				} {
					if !reflect.DeepEqual(d.want, d.got) {
						t.Errorf("%s: %s of the union differ from the solo run:\nwant %s\ngot  %s", rc.c.Name, d.what, clip(d.want), clip(d.got))
					}
				}
			}
			if delayAlarms == 0 || fwdAlarms == 0 || evs == 0 {
				t.Errorf("the cases raised %d delay alarms, %d forwarding alarms and %d events: some output goes unchecked", delayAlarms, fwdAlarms, evs)
			}
		})
	}
}

// relationCases are the quick cases a relation runs unless it says
// otherwise: ddos raises the delay alarms and the events, ixp the
// forwarding alarms. The time shift reads the first event window, which the
// quiet case lacks.
var relationCases = []string{"ddos", "ixp"}

// checkRelation replays the named quick cases, generated under art, as
// written and as relabelled by rel, and requires every alarm, magnitude
// point, event and counter of the relabelled replay, mapped back, to equal
// the plain replay's. The test fails if the cases together leave delay
// alarms, forwarding alarms or events unchecked.
func checkRelation(t *testing.T, cases []string, art netsim.Artifacts, rel func(*testing.T, *Case) relabel) {
	var delayAlarms, fwdAlarms, evs int
	for _, name := range cases {
		t.Run(name, func(t *testing.T) {
			c, err := NewCaseArtifacts(name, Quick, art)
			if err != nil {
				t.Fatal(err)
			}
			r := rel(t, c)
			want, got := relationRuns(t, c, r)
			delayAlarms, fwdAlarms, evs = delayAlarms+len(want.delay), fwdAlarms+len(want.fwd), evs+len(want.events)
			for _, d := range []struct {
				what      string
				want, got any
			}{
				{"delay alarms", want.delay, got.delay},
				{"forwarding alarms", want.fwd, got.fwd},
				{"events", want.events, got.events},
				{"ASes", want.ases, got.ases},
				{"delay magnitudes", want.delayMag, got.delayMag},
				{"forwarding magnitudes", want.fwdMag, got.fwdMag},
				{"ingest stats", want.st, got.st},
				{"delay close stats", want.delayClose, got.delayClose},
				{"forwarding close stats", want.fwdClose, got.fwdClose},
				{"counters", [4]int{want.results, want.closed, want.links, want.routers}, [4]int{got.results, got.closed, got.links, got.routers}},
			} {
				if !reflect.DeepEqual(d.want, d.got) {
					t.Errorf("%s differ after mapping back (shift %v):\nwant %s\ngot  %s", d.what, r.shift, clip(d.want), clip(d.got))
				}
			}
		})
	}
	if delayAlarms == 0 || fwdAlarms == 0 || evs == 0 {
		t.Errorf("the cases raised %d delay alarms, %d forwarding alarms and %d events: some output goes unchecked", delayAlarms, fwdAlarms, evs)
	}
}

// clip renders v for a failure message, cut to its first 300 bytes.
func clip(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 300 {
		s = s[:300] + "…"
	}
	return s
}

// relationRuns generates c once, writes it as a dump and as a copy
// relabelled by rel, and replays both through RunFiles, each with the
// probe→AS map and prefix table its dump's names need. The relabelled
// run's report is mapped back through rel.
func relationRuns(t *testing.T, c *Case, rel relabel) (want, got relationRun) {
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "plain.ndjson"), filepath.Join(dir, "relabelled.ndjson")}
	var ws [2]*trace.Writer
	for i, p := range paths {
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ws[i] = trace.NewWriter(f)
	}
	if err := c.Platform.Run(c.Start, c.End, func(r trace.Result) error {
		if err := ws[0].Write(r); err != nil {
			return err
		}
		return ws[1].Write(rel.result(r))
	}); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	run := func(path string, rel relabel) relationRun {
		a, st := replay(t, path, core.Config{RetainAlarms: true}, relabelled{c, rel})
		defer a.Close()
		// A relabelled name may print longer, so the payload count is held
		// to the dump's own size rather than to the other run's.
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Bytes != fi.Size()-int64(st.Lines) {
			t.Errorf("%s: %d payload bytes scanned, want the file's %d less %d line ends", path, st.Bytes, fi.Size(), st.Lines)
		}
		st.Bytes = 0
		out := outputs(t, a, relabelled{c, rel}, func(netip.Addr) bool { return true }, func(ipmap.ASN) bool { return true })
		out.st, out.results, out.closed, out.links, out.routers = st, a.Results(), int(a.ResultsClosed()), a.LinksSeen(), a.RoutersSeen()
		out.delayClose, out.fwdClose = a.BinCloseStats()
		out.delayClose.Dur, out.fwdClose.Dur = 0, 0
		return out
	}
	return run(paths[0], identity), run(paths[1], rel)
}

// replay runs the dump at path through RunFiles on a fresh analyzer with
// cfg, resolving probes and addresses through the relabelled probe→AS maps
// and prefix tables of the cases the dump holds. §4.3 must thin no
// link-bin: its thinning seeds on the bin's time, so no relation holds for
// a thinned one.
func replay(t *testing.T, path string, cfg core.Config, cases ...relabelled) (*core.Analyzer, ingest.Stats) {
	t.Helper()
	probeASN := map[int]ipmap.ASN{}
	var table ipmap.Table
	for _, rc := range cases {
		for _, p := range rc.c.Platform.Probes() {
			probeASN[rc.rel.prb(p.ID)] = rc.rel.asn(p.ASN)
		}
		for _, e := range rc.c.Net.Prefixes().Entries() {
			if e.Prefix.Addr().Is4() && e.Prefix.Bits() < 8 && rc.rel.octet4 != 0 {
				t.Fatalf("prefix %v is shorter than the /8 the relabelling moves", e.Prefix)
			}
			if err := table.Add(rc.rel.prefix(e.Prefix), rc.rel.asn(e.ASN)); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := core.New(cfg, func(id int) (ipmap.ASN, bool) {
		asn, ok := probeASN[id]
		return asn, ok
	}, &table)
	st, err := a.RunFiles(context.Background(), []string{path}, ingest.Options{Workers: 2})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	if dc, _ := a.BinCloseStats(); dc.Dropped != 0 {
		a.Close()
		t.Fatalf("%d link-bins thinned by §4.3: the relation does not hold for them", dc.Dropped)
	}
	return a, st
}

// outputs reports what a replay computed for one relabelled case within
// its window, mapped back through its relabelling: the alarms whose
// addresses ownAddr accepts, and the events, ASes and magnitudes of the
// ASes ownASN accepts.
func outputs(t *testing.T, a *core.Analyzer, rc relabelled, ownAddr func(netip.Addr) bool, ownASN func(ipmap.ASN) bool) relationRun {
	rel := rc.rel
	from, to := rc.c.Start.Add(rel.shift), rc.c.End.Add(rel.shift)
	in := func(bin time.Time) bool { return !bin.Before(from) && bin.Before(to) }
	back := func(tm time.Time) time.Time { return tm.Add(-rel.shift) }
	addrBack := rel.addrBack
	out := relationRun{delayMag: map[ipmap.ASN][]timeseries.Point{}, fwdMag: map[ipmap.ASN][]timeseries.Point{}}
	for _, al := range a.DelayAlarms() {
		if own := ownAddr(al.Link.Near); own != ownAddr(al.Link.Far) {
			t.Fatalf("delay alarm on link %v joins the two cases", al.Link)
		} else if own && in(al.Bin) {
			al.Bin, al.Link.Near, al.Link.Far = back(al.Bin), addrBack(al.Link.Near), addrBack(al.Link.Far)
			out.delay = append(out.delay, al)
		}
	}
	for _, al := range a.ForwardingAlarms() {
		if !ownAddr(al.Router) || !in(al.Bin) {
			continue
		}
		al.Bin, al.Router, al.Dst = back(al.Bin), addrBack(al.Router), addrBack(al.Dst)
		al.Hops = slices.Clone(al.Hops)
		for i := range al.Hops {
			al.Hops[i].Hop = addrBack(al.Hops[i].Hop)
		}
		out.fwd = append(out.fwd, al)
	}
	agg := a.Aggregator()
	for _, e := range agg.Events(from, to) {
		if ownASN(e.ASN) {
			e.Bin, e.ASN = back(e.Bin), rel.asnBack(e.ASN)
			out.events = append(out.events, e)
		}
	}
	backPoints := func(pts []timeseries.Point) []timeseries.Point {
		for i := range pts {
			pts[i].T = back(pts[i].T)
		}
		return pts
	}
	for _, asn := range agg.ASes() {
		if !ownASN(asn) {
			continue
		}
		orig := rel.asnBack(asn)
		out.ases = append(out.ases, orig)
		out.delayMag[orig] = backPoints(agg.DelayMagnitude(asn, from, to))
		out.fwdMag[orig] = backPoints(agg.ForwardingMagnitude(asn, from, to))
	}
	return out
}
