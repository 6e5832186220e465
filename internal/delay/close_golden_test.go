package delay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"net/netip"
	"slices"
	"testing"
	"time"

	"pinpoint/internal/ident"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/stats"
	"pinpoint/internal/trace"
)

// The benchmark fixtures never drop a probe in §4.3's entropy loop, so their
// digests cannot see a mistake in the close path that still copies the
// surviving samples. This fixture reaches every branch of closeBin: link-bins
// of 1 to 5 000 samples; balanced links next to links with a dominant AS
// (dropping), too few ASes (rejection) and a single probe; negative,
// duplicate-heavy and ±Inf ∆s; probes returning to a link (several runs per
// probe); level shifts that raise alarms — each under the paper's
// configuration, DisableDiversityFilter and UseMeanCI.

// goldenASN gives every AS room for 1000 probes, so one AS can dominate.
func goldenASN(id int) (ipmap.ASN, bool) { return ipmap.ASN(101 + id/1000), true }

type goldenLink struct {
	id     ident.LinkID
	n      int     // ∆ samples per bin
	probes []int32 // contributing probes
	base   float64
	round  bool // quantize to 0.5 ms: duplicate-heavy
	inf    bool // sprinkle ±Inf
	shift  bool // +30 ms in bins 4 and 5
}

func goldenLinks(reg *ident.Registry) []goldenLink {
	in := ident.NewInterner(reg)
	sizes := []int{1, 2, 8, 9, 10, 16, 17, 47, 48, 100, 255, 256, 600, 601, 1000, 2048, 5000}
	var links []goldenLink
	for i, n := range sizes {
		for kind := 0; kind < 4; kind++ {
			near := netip.AddrFrom4([4]byte{10, byte(kind), byte(i), 1})
			far := netip.AddrFrom4([4]byte{10, byte(kind), byte(i), 2})
			l := goldenLink{
				id:    in.Link(in.Addr(near), in.Addr(far)),
				n:     n,
				base:  float64(3 + 2*kind + i%5),
				round: i%3 == 0,
				inf:   i%4 == 1,
				shift: i%2 == 0,
			}
			if i%5 == 2 {
				l.base = -20
			}
			want := max(1, n/5) // a probe contributes about five samples
			switch kind {
			case 0: // balanced over five ASes
				for p := 0; p < want; p++ {
					l.probes = append(l.probes, int32(1000*(p%5)+p/5))
				}
			case 1: // one AS holds all but three probes: §4.3 must drop
				for p := 0; p < max(want, 12); p++ {
					l.probes = append(l.probes, int32(p))
				}
				for r := 0; r <= want/10; r++ { // the three show up in most bins
					l.probes = append(l.probes, 1000, 1001, 2000)
				}
			case 2: // two ASes: fails MinASes
				for p := 0; p < want; p++ {
					l.probes = append(l.probes, int32(1000*(p%2)+p/2))
				}
			case 3: // a single probe
				l.probes = []int32{4000 + int32(i)}
			}
			links = append(links, l)
		}
	}
	return links
}

// samples appends the link's ∆ samples of one bin, seeded by (link, bin):
// probes come and go in runs of one to nine samples.
func (l *goldenLink) samples(out []Sample, bin int) []Sample {
	rng := rand.New(rand.NewPCG(uint64(l.id)+1, uint64(bin)))
	for left := l.n; left > 0; {
		probe := l.probes[rng.IntN(len(l.probes))]
		asn, _ := goldenASN(int(probe))
		for run := min(left, 1+rng.IntN(9)); run > 0; run-- {
			v := l.base + rng.ExpFloat64()*4
			if l.shift && bin >= 4 {
				v += 30
			}
			if l.round {
				v = math.Round(v*2) / 2
			}
			if l.inf && rng.IntN(40) == 0 {
				v = math.Inf(rng.IntN(2)*2 - 1)
			}
			out = append(out, Sample{Link: l.id, Probe: probe, ASN: asn, Delta: v})
			left--
		}
	}
	return out
}

// logSamples appends samples to l as one-∆ records over c, each a view of
// one near RTT 0 and one far RTT ∆: far − near = ∆ − 0 is ∆ bit for bit
// (−0 included), so a detector ingesting l sees exactly these samples, each
// probe's consecutive ones as one run.
func logSamples(c *Column, l *Log, samples []Sample) {
	var r Recorder
	for _, s := range samples {
		v := trace.View{Prb: int(s.Probe), RTT: []float64{0, s.Delta}}
		r.Begin(c, &v, s.ASN)
		r.Record(l, s.Link, 0, 1, 2)
	}
}

var closeBinGoldenConfigs = []struct {
	name string
	cfg  Config
	want string
}{
	{"paper", Config{Seed: 7}, "ffb2b67edc53930ee92018b12eb95628e037fd49fd6f7b5777562f2207cda573"},
	{"nofilter", Config{Seed: 7, minSamples: 1, DisableDiversityFilter: true}, "1797ef1438917818ea1e7bf35050fc621e17265693d72b8d5a15bc9b61717f4a"},
	{"meanci", Config{Seed: 7, UseMeanCI: true}, "b85781aca6e5a2434846429c4e08b259e03feeb12ed86b6c2bf0aa8e9e35d376"},
	{"meanci-nofilter", Config{Seed: 7, UseMeanCI: true, DisableDiversityFilter: true}, "d30d9d46f63f2eaefbac4d6f4575870ecefe7983e409e23c7f4733ed8d07b0d3"},
}

// TestCloseBinGolden pins the bytes of bin close: the sha256 over every
// Observation and Alarm (floats by their bits) of the fixture above was
// recorded before the in-place close and the branch-free selection kernel
// went in, and neither may move it.
func TestCloseBinGolden(t *testing.T) {
	for _, tc := range closeBinGoldenConfigs {
		t.Run(tc.name, func(t *testing.T) {
			r := runCloseGolden(tc.cfg, nil)
			if r.observations == 0 || r.anomalous == 0 {
				t.Fatalf("fixture is too quiet: %d observations, %d anomalous", r.observations, r.anomalous)
			}
			// The point of the fixture: the copy path and the rejection run
			// whenever §4.3 is on, and only then.
			cs := r.d.CloseStats()
			if filtered := !tc.cfg.DisableDiversityFilter; (cs.Dropped > 0) != filtered || (cs.Rejected > 0) != filtered {
				t.Fatalf("diversity filter on=%v but %d link-bins dropped probes, %d rejected", filtered, cs.Dropped, cs.Rejected)
			}
			if r.digest != tc.want {
				t.Errorf("observation stream sha256 = %s, want %s (%d observations, %d anomalous)", r.digest, tc.want, r.observations, r.anomalous)
			}
		})
	}
}

// TestMinSamplesBoundary pins Appendix B's floor: a link-bin that §4.3
// keeps whole with 8 ∆ samples is not evaluated, and one with 9 is. Three
// probes from three ASes pass §4.3 untouched; a thinned link-bin keeps at
// least 12 probes, so it never reaches the boundary.
func TestMinSamplesBoundary(t *testing.T) {
	for _, n := range []int{minSamples - 1, minSamples} {
		var obs []Observation
		d := NewDetector(Config{Seed: 1, Observer: func(o Observation) { obs = append(obs, o) }}, goldenASN)
		in := ident.NewInterner(d.Registry())
		link := in.Link(in.Addr(netip.MustParseAddr("10.0.0.1")), in.Addr(netip.MustParseAddr("10.0.0.2")))
		var samples []Sample
		for i := range n {
			probe := int32(1000 * (1 + i%3))
			asn, _ := goldenASN(int(probe))
			samples = append(samples, Sample{Link: link, Probe: probe, ASN: asn, Delta: float64(5 + i)})
		}
		var col Column
		var log Log
		logSamples(&col, &log, samples)
		d.ShareColumn(&col)
		d.BeginBin(t0)
		d.IngestLog(&log)
		d.Flush()
		cs := d.CloseStats()
		if cs.Dropped != 0 || cs.Rejected != 0 {
			t.Fatalf("%d samples: §4.3 dropped %d, rejected %d link-bins, want none", n, cs.Dropped, cs.Rejected)
		}
		if want := n >= minSamples; (len(obs) == 1) != want || len(obs) > 1 || (cs.Links == 1) != want {
			t.Errorf("%d samples: %d observations, %d link-bins evaluated; want evaluated=%v", n, len(obs), cs.Links, want)
		}
		if len(obs) == 1 && (obs[0].Observed.N != n || obs[0].Probes != 3 || obs[0].ASes != 3) {
			t.Errorf("%d samples: observation %+v", n, obs[0])
		}
	}
}

// TestCloseStateIgnoresProbeIDMagnitude runs the golden fixture with its
// probes renumbered 1…k and again 2³¹−k…2³¹−1, in the same order and each
// in its own AS: both runs must close to the golden bytes. The fixture's
// IDs are small, as a table indexed by raw probe ID would need them to be;
// Atlas's have six and seven digits. Every per-probe table must therefore
// be at most as long as the number of distinct probes, every per-AS table
// as the number of distinct ASes.
func TestCloseStateIgnoresProbeIDMagnitude(t *testing.T) {
	var ids []int32
	ases := map[ipmap.ASN]bool{}
	for _, l := range goldenLinks(ident.NewRegistry()) {
		for _, p := range l.probes {
			ids = append(ids, p)
			asn, _ := goldenASN(int(p))
			ases[asn] = true
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	k := int32(len(ids))
	for _, tc := range closeBinGoldenConfigs {
		for _, base := range []int32{1, math.MaxInt32 - k + 1} {
			r := runCloseGolden(tc.cfg, func(p int32) int32 {
				i, _ := slices.BinarySearch(ids, p)
				return base + int32(i)
			})
			if r.digest != tc.want {
				t.Errorf("%s, probes from %d: observation stream sha256 = %s, want %s", tc.name, base, r.digest, tc.want)
			}
			if n := len(r.d.probeMark); n > len(ids) {
				t.Errorf("%s, probes from %d: per-probe table of %d for %d probes", tc.name, base, n, len(ids))
			}
			if n := len(r.col.probeAS); n > len(ids) || len(r.col.probeNum) > len(ids) {
				t.Errorf("%s, probes from %d: column numbers %d probes (map of %d) of %d", tc.name, base, n, len(r.col.probeNum), len(ids))
			}
			if n := len(r.d.asTally); n > len(ases) || len(r.col.asns) > len(ases) {
				t.Errorf("%s, probes from %d: per-AS tables of %d and %d for %d ASes", tc.name, base, n, len(r.col.asns), len(ases))
			}
		}
	}
}

// closeGolden is one run of the golden fixture: the sha256 of its
// Observation and Alarm stream, their counts, its detector and column.
type closeGolden struct {
	digest                  string
	observations, anomalous int
	d                       *Detector
	col                     *Column
}

// runCloseGolden closes the golden fixture's six bins on a detector of
// cfg, every probe p renumbered probeID(p) when probeID is not nil.
func runCloseGolden(cfg Config, probeID func(int32) int32) closeGolden {
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	head := func(bin time.Time, link trace.LinkKey) {
		u64(uint64(bin.UnixNano()))
		buf = append(append(buf, link.Near.AsSlice()...), link.Far.AsSlice()...)
	}
	ci := func(c stats.MedianCI) {
		f64(c.Median)
		f64(c.Lower)
		f64(c.Upper)
		u64(uint64(c.N))
	}
	var r closeGolden
	cfg.Observer = func(o Observation) {
		buf = append(buf[:0], 'o')
		head(o.Bin, o.Link)
		ci(o.Observed)
		ci(o.Reference)
		f64(o.Deviation)
		u64(uint64(o.Probes))
		u64(uint64(o.ASes))
		if o.Anomalous {
			buf = append(buf, 1)
			r.anomalous++
		}
		h.Write(buf)
		r.observations++
	}
	r.d = NewDetector(cfg, goldenASN)
	links := goldenLinks(r.d.Registry())
	var batch []Sample
	r.col = new(Column)
	var log Log
	r.d.ShareColumn(r.col)
	for bin := 0; bin < 6; bin++ {
		r.d.BeginBin(t0.Add(time.Duration(bin) * time.Hour))
		batch = batch[:0]
		for i := range links {
			batch = links[i].samples(batch, bin)
		}
		if probeID != nil {
			for i := range batch {
				batch[i].Probe = probeID(batch[i].Probe)
			}
		}
		r.col.Reset()
		log.Reset()
		logSamples(r.col, &log, batch)
		r.d.IngestLog(&log)
		for _, a := range r.d.Flush() {
			buf = append(buf[:0], 'a')
			head(a.Bin, a.Link)
			ci(a.Observed)
			ci(a.Reference)
			f64(a.Deviation)
			f64(a.DiffMS)
			u64(uint64(a.Probes))
			u64(uint64(a.ASes))
			h.Write(buf)
		}
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r
}

// TestBinCloseAllocationFree is the pin BenchmarkBinClose only reports: on
// a warmed detector, re-ingesting a bin's log over a shared column and
// closing it allocates nothing — on a link that keeps every probe
// (selection runs in place on the rebuilt ∆ column) and on one §4.3 drops
// probes from (the copy path).
func TestBinCloseAllocationFree(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, goldenASN)
	var batch []Sample
	for _, l := range goldenLinks(d.Registry()) {
		if l.n == 600 { // one link of each kind
			batch = l.samples(batch, 0)
		}
	}
	var col Column
	var log Log
	logSamples(&col, &log, batch)
	d.ShareColumn(&col)
	bin := t0
	run := func() {
		d.BeginBin(bin)
		d.IngestLog(&log) // the same records every bin: no alarms, no growth
		bin = bin.Add(time.Hour)
		if alarms := d.Flush(); len(alarms) != 0 {
			t.Fatalf("steady fixture raised %d alarms", len(alarms))
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Errorf("bin close allocates %v times per bin, want 0", n)
	}
	if cs := d.CloseStats(); cs.Dropped == 0 || cs.Links == cs.Dropped {
		t.Errorf("fixture closed %d link-bins, %d through the copy path: want both paths", cs.Links, cs.Dropped)
	}
}
