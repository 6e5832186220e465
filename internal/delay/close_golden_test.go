package delay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"net/netip"
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

// logSamples appends samples to l as one-∆ records: far − near = ∆ − 0 is
// ∆ bit for bit (−0 included), so a detector ingesting l sees exactly these
// samples, each probe's consecutive ones as one run.
func logSamples(l *Log, samples []Sample) {
	far := make([]float64, len(samples))
	var r Recorder
	for i, s := range samples {
		far[i] = s.Delta
		r.Begin(s.Probe, s.ASN)
		r.Record(l, s.Link, 0, far[i:i+1])
	}
}

var closeBinGoldenConfigs = []struct {
	name string
	cfg  Config
	want string
}{
	{"paper", Config{Seed: 7}, "ffb2b67edc53930ee92018b12eb95628e037fd49fd6f7b5777562f2207cda573"},
	{"nofilter", Config{Seed: 7, MinSamples: 1, DisableDiversityFilter: true}, "1797ef1438917818ea1e7bf35050fc621e17265693d72b8d5a15bc9b61717f4a"},
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
			observations, anomalous := 0, 0
			cfg := tc.cfg
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
					anomalous++
				}
				h.Write(buf)
				observations++
			}
			d := NewDetector(cfg, goldenASN)
			links := goldenLinks(d.Registry())
			var batch []Sample
			var log Log
			for bin := 0; bin < 6; bin++ {
				d.BeginBin(t0.Add(time.Duration(bin) * time.Hour))
				batch = batch[:0]
				for i := range links {
					batch = links[i].samples(batch, bin)
				}
				log.Reset()
				logSamples(&log, batch)
				d.IngestLog(&log)
				for _, a := range d.Flush() {
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
			if observations == 0 || anomalous == 0 {
				t.Fatalf("fixture is too quiet: %d observations, %d anomalous", observations, anomalous)
			}
			// The point of the fixture: the copy path and the rejection run
			// whenever §4.3 is on, and only then.
			cs := d.CloseStats()
			if filtered := !cfg.DisableDiversityFilter; (cs.Dropped > 0) != filtered || (cs.Rejected > 0) != filtered {
				t.Fatalf("diversity filter on=%v but %d link-bins dropped probes, %d rejected", filtered, cs.Dropped, cs.Rejected)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("observation stream sha256 = %s, want %s (%d observations, %d anomalous)", got, tc.want, observations, anomalous)
			}
		})
	}
}

// TestBinCloseAllocationFree is the pin BenchmarkBinClose only reports: on
// a warmed detector, re-ingesting a bin's log and closing it allocates
// nothing — on a link that keeps every probe (selection runs in place on the
// rebuilt ∆ column) and on one §4.3 drops probes from (the copy path).
func TestBinCloseAllocationFree(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, goldenASN)
	var batch []Sample
	for _, l := range goldenLinks(d.Registry()) {
		if l.n == 600 { // one link of each kind
			batch = l.samples(batch, 0)
		}
	}
	var log Log
	logSamples(&log, batch)
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
