package delay

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"slices"
	"testing"
	"time"

	"pinpoint/internal/ipmap"
	"pinpoint/internal/stats"
	"pinpoint/internal/trace"
)

var (
	t0    = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	nearA = netip.MustParseAddr("10.0.0.1")
	farB  = netip.MustParseAddr("10.0.1.1")
)

// testASN maps probe id → AS: probes 1..10 are AS101, 11..20 AS102, etc.
func testASN(id int) (ipmap.ASN, bool) {
	if id <= 0 {
		return 0, false
	}
	return ipmap.ASN(101 + (id-1)/10), true
}

// mkResult builds a two-hop result where hop1 responds from nearA with
// rttNear and hop2 from farB with rttFar (three replies each, jittered by
// rng so Wilson CIs have width).
func mkResult(prb int, at time.Time, rttNear, rttFar float64, rng *rand.Rand) trace.Result {
	jit := func(v float64) float64 { return v + rng.Float64()*0.2 }
	return trace.Result{
		MsmID: 5001, PrbID: prb, Time: at,
		Src: netip.MustParseAddr("192.0.2.1"), Dst: netip.MustParseAddr("198.51.100.1"),
		Hops: []trace.Hop{
			{Index: 1, Replies: []trace.Reply{
				{From: nearA, RTT: jit(rttNear)}, {From: nearA, RTT: jit(rttNear)}, {From: nearA, RTT: jit(rttNear)},
			}},
			{Index: 2, Replies: []trace.Reply{
				{From: farB, RTT: jit(rttFar)}, {From: farB, RTT: jit(rttFar)}, {From: farB, RTT: jit(rttFar)},
			}},
		},
	}
}

// feedBin feeds one bin of results: nProbes probes (ids 1..n), with the
// far-hop RTT shifted by shift ms.
func feedBin(d *Detector, bin int, nProbes int, shift float64, rng *rand.Rand) []Alarm {
	var alarms []Alarm
	at := t0.Add(time.Duration(bin) * time.Hour)
	for p := 1; p <= nProbes; p++ {
		base := 5 + float64(p%7) // per-probe return-path offset ε
		r := mkResult(p, at.Add(time.Duration(p)*time.Minute), base, base+2+shift, rng)
		alarms = append(alarms, d.Observe(r)...)
	}
	return alarms
}

func TestDeviationEq6(t *testing.T) {
	ref := stats.MedianCI{Median: 5, Lower: 4, Upper: 6, N: 10}
	// Overlap → 0.
	if got := Deviation(stats.MedianCI{Median: 5.5, Lower: 5, Upper: 7, N: 10}, ref); got != 0 {
		t.Errorf("overlap deviation = %v, want 0", got)
	}
	// Observed above: gap 2 over half-width 1 → 2.
	obs := stats.MedianCI{Median: 9, Lower: 8, Upper: 10, N: 10}
	if got := Deviation(obs, ref); !almostEq(got, 2, 1e-9) {
		t.Errorf("above deviation = %v, want 2", got)
	}
	// Observed below: gap (4 − 2) over (5 − 4) → 2.
	obs = stats.MedianCI{Median: 1, Lower: 0, Upper: 2, N: 10}
	if got := Deviation(obs, ref); !almostEq(got, 2, 1e-9) {
		t.Errorf("below deviation = %v, want 2", got)
	}
	// Degenerate reference CI: guarded, large but finite.
	degr := stats.MedianCI{Median: 5, Lower: 5, Upper: 5, N: 10}
	got := Deviation(stats.MedianCI{Median: 6, Lower: 6, Upper: 6, N: 10}, degr)
	if got <= 0 || got > 1e6 {
		t.Errorf("degenerate deviation = %v", got)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := NewDetector(Config{}, testASN).Config()
	if cfg.BinSize != time.Hour || cfg.MinSamples != 9 {
		t.Errorf("defaults = %+v", cfg)
	}
	if z != 1.96 || alpha != 0.01 || warmupBins != 3 || minASes != 3 ||
		minEntropy != 0.5 || minDiffMS != 1.0 {
		t.Errorf("constants: z=%v alpha=%v warmupBins=%d minASes=%d minEntropy=%v minDiffMS=%v",
			z, alpha, warmupBins, minASes, minEntropy, minDiffMS)
	}
}

func TestNoAlarmsOnStableLink(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, testASN)
	rng := rand.New(rand.NewPCG(1, 1))
	var alarms []Alarm
	for bin := 0; bin < 12; bin++ {
		alarms = append(alarms, feedBin(d, bin, 30, 0, rng)...)
	}
	alarms = append(alarms, d.Flush()...)
	if len(alarms) != 0 {
		t.Errorf("stable link produced %d alarms: %+v", len(alarms), alarms[0])
	}
	if d.LinksSeen() != 1 {
		t.Errorf("LinksSeen = %d, want 1", d.LinksSeen())
	}
}

func TestDetectsDelayShift(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, testASN)
	rng := rand.New(rand.NewPCG(2, 2))
	for bin := 0; bin < 8; bin++ {
		if a := feedBin(d, bin, 30, 0, rng); len(a) != 0 {
			t.Fatalf("warm period produced alarms at bin %d", bin)
		}
	}
	// +10 ms shift on the link during bin 8.
	alarms := feedBin(d, 8, 30, 10, rng)
	alarms = append(alarms, feedBin(d, 9, 30, 0, rng)...) // rollover triggers evaluation of bin 8
	alarms = append(alarms, d.Flush()...)
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d, want exactly 1", len(alarms))
	}
	a := alarms[0]
	if a.Link != (trace.LinkKey{Near: nearA, Far: farB}) {
		t.Errorf("alarm link = %v", a.Link)
	}
	if !a.Bin.Equal(t0.Add(8 * time.Hour)) {
		t.Errorf("alarm bin = %v", a.Bin)
	}
	if a.Deviation <= 0 {
		t.Errorf("deviation = %v, want > 0", a.Deviation)
	}
	if a.DiffMS < 8 || a.DiffMS > 12 {
		t.Errorf("DiffMS = %v, want ≈ 10", a.DiffMS)
	}
	if a.ASes < 3 {
		t.Errorf("ASes = %d", a.ASes)
	}
}

// TestNoEvictionByDefault pins the paper behavior (§4.2.4): a link keeps
// its smoothed reference across an idle gap of any length, so a shifted
// return bin alarms immediately.
func TestNoEvictionByDefault(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, testASN)
	rng := rand.New(rand.NewPCG(9, 9))
	for bin := 0; bin < 6; bin++ {
		feedBin(d, bin, 30, 0, rng)
	}
	alarms := feedBin(d, 10, 30, 10, rng)
	alarms = append(alarms, feedBin(d, 11, 30, 0, rng)...)
	alarms = append(alarms, d.Flush()...)
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d, want 1 (reference retained across the gap)", len(alarms))
	}
}

func TestSmallShiftBelow1msNotReported(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, testASN)
	rng := rand.New(rand.NewPCG(3, 3))
	for bin := 0; bin < 8; bin++ {
		feedBin(d, bin, 40, 0, rng)
	}
	alarms := feedBin(d, 8, 40, 0.5, rng)
	alarms = append(alarms, d.Flush()...)
	for _, a := range alarms {
		if a.DiffMS < 1 {
			t.Errorf("sub-1ms change reported: %+v", a)
		}
	}
}

func TestDiversityFilterRequiresThreeASes(t *testing.T) {
	seen := 0
	cfg := Config{Seed: 1, Observer: func(o Observation) { seen++ }}
	d := NewDetector(cfg, testASN)
	rng := rand.New(rand.NewPCG(4, 4))
	// Probes 1..10 are all AS101; 11..20 AS102 → only 2 ASes.
	for bin := 0; bin < 5; bin++ {
		at := t0.Add(time.Duration(bin) * time.Hour)
		for p := 1; p <= 20; p++ {
			d.Observe(mkResult(p, at, 5, 7, rng))
		}
	}
	d.Flush()
	if seen != 0 {
		t.Errorf("2-AS link evaluated %d times, want 0", seen)
	}
}

func TestEntropyDropsDominantAS(t *testing.T) {
	var obs []Observation
	cfg := Config{Seed: 1, Observer: func(o Observation) { obs = append(obs, o) }}
	// 20 probes in AS900, one each in AS901/902/903: H([20,1,1,1]) ≈ 0.38,
	// below the 0.5 threshold → probes must be dropped from AS900 until
	// H > 0.5, which happens at [12,1,1,1] (H ≈ 0.52).
	dominantASN := func(id int) (ipmap.ASN, bool) {
		if id <= 20 {
			return 900, true
		}
		return ipmap.ASN(880 + id), true
	}
	d := NewDetector(cfg, dominantASN)
	rng := rand.New(rand.NewPCG(5, 5))
	ids := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}
	for bin := 0; bin < 2; bin++ {
		at := t0.Add(time.Duration(bin) * time.Hour)
		for _, p := range ids {
			d.Observe(mkResult(p, at, 5, 7, rng))
		}
	}
	d.Flush()
	if len(obs) == 0 {
		t.Fatal("link never evaluated")
	}
	for _, o := range obs {
		if o.Probes != 15 {
			t.Errorf("probes after dropping = %d, want 15 (12 in the dominant AS + 3)", o.Probes)
		}
		if o.ASes != 4 {
			t.Errorf("ASes = %d, want 4 (dropping trims, never removes, ASes)", o.ASes)
		}
	}
}

// linkBin is one link's open bin as the next close rebuilds it.
type linkBin struct {
	col  []float64
	runs []probeRun
}

// openBins rebuilds every link-bin of d's open log, keyed by link, without
// closing the bin.
func openBins(d *Detector) map[trace.LinkKey]linkBin {
	out := map[trace.LinkKey]linkBin{}
	slots, ends, ord := d.groupLog()
	lo := int32(0)
	for k, si := range slots {
		col, runs := d.column(ord[lo:ends[k]])
		lo = ends[k]
		out[d.links[si].key] = linkBin{slices.Clone(col), slices.Clone(runs)}
	}
	return out
}

func TestUpToNineSamplesPerProbe(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, testASN)
	rng := rand.New(rand.NewPCG(6, 6))
	r := mkResult(1, t0, 5, 7, rng)
	d.Observe(r)
	if recs, vals := d.log.Len(); recs != 1 || vals != 6 {
		t.Errorf("log holds %d records over %d RTTs, want the 3×3 hop pair as one record of 6", recs, vals)
	}
	lb, ok := openBins(d)[trace.LinkKey{Near: nearA, Far: farB}]
	if !ok {
		t.Fatal("no samples extracted")
	}
	var want []float64
	for _, near := range r.Hops[0].Replies {
		for _, far := range r.Hops[1].Replies {
			want = append(want, far.RTT-near.RTT)
		}
	}
	if !slices.Equal(lb.col, want) {
		t.Errorf("∆ column = %v, want far − near, near-major: %v", lb.col, want)
	}
	if len(lb.runs) != 1 || lb.runs[0] != (probeRun{probe: 1, asn: 101, start: 0, end: 9}) {
		t.Errorf("runs = %+v, want one run of 9 from probe 1 (3×3 combinations)", lb.runs)
	}
}

// TestWrappedHopNumbersNotPaired: hop numbers MaxInt then MinInt pass
// far == near+1 by wrapping; they are not adjacent, so the line yields no
// ∆ (on the wire path the decoder takes both numbers as they are).
func TestWrappedHopNumbersNotPaired(t *testing.T) {
	line := fmt.Sprintf(`{"msm_id":5001,"prb_id":1,"timestamp":1433116800,"src_addr":"192.0.2.1","dst_addr":"198.51.100.1","result":[`+
		`{"hop":%d,"result":[{"from":"10.0.0.2","rtt":1.5}]},{"hop":%d,"result":[{"from":"10.0.0.3","rtt":9.5}]}]}`, math.MaxInt, math.MinInt)
	d := NewDetector(Config{Seed: 1}, testASN)
	var v trace.View
	if err := new(trace.Decoder).DecodeView([]byte(line), d.intern, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Hops) != 2 {
		t.Fatalf("decoded %d hops, want 2", len(v.Hops))
	}
	d.ObserveView(&v)
	var r trace.Result
	if err := r.UnmarshalJSON([]byte(line)); err != nil {
		t.Fatal(err)
	}
	d.Observe(r)
	if n, _ := d.log.Len(); n != 0 {
		t.Errorf("wrapped hop numbers formed a link: %d records", n)
	}
	ExtractSamples(d.intern, r, testASN, func(s Sample) { t.Errorf("wrapped hop numbers yielded ∆ %v", s.Delta) })
}

func TestTimeoutsAndSelfPairsSkipped(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, testASN)
	r := trace.Result{
		PrbID: 1, Time: t0,
		Src: netip.MustParseAddr("192.0.2.1"), Dst: netip.MustParseAddr("198.51.100.1"),
		Hops: []trace.Hop{
			{Index: 1, Replies: []trace.Reply{{From: nearA, RTT: 5}, {Timeout: true}}},
			{Index: 2, Replies: []trace.Reply{{From: nearA, RTT: 6}, {Timeout: true}}},
		},
	}
	d.Observe(r)
	if n, _ := d.log.Len(); n != 0 {
		t.Errorf("self-pair (same addr both hops) extracted: %d records", n)
	}
}

func TestNonAdjacentHopsNotPaired(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, testASN)
	r := trace.Result{
		PrbID: 1, Time: t0,
		Src: netip.MustParseAddr("192.0.2.1"), Dst: netip.MustParseAddr("198.51.100.1"),
		Hops: []trace.Hop{
			{Index: 1, Replies: []trace.Reply{{From: nearA, RTT: 5}}},
			{Index: 3, Replies: []trace.Reply{{From: farB, RTT: 9}}}, // gap at 2
		},
	}
	d.Observe(r)
	if n, _ := d.log.Len(); n != 0 {
		t.Errorf("non-adjacent hops paired: %d records", n)
	}
}

func TestUnknownProbeIgnored(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, testASN)
	rng := rand.New(rand.NewPCG(7, 7))
	d.Observe(mkResult(-5, t0, 5, 7, rng))
	if n, _ := d.log.Len(); n != 0 {
		t.Error("result from unknown probe ingested")
	}
}

func TestNegativeDifferentialRTTSupported(t *testing.T) {
	// ∆ < 0 (far hop replies faster than near hop due to asymmetric return
	// paths) must flow through the pipeline — the paper observes these
	// routinely (Fig 7c, 7d).
	var obs []Observation
	d := NewDetector(Config{Seed: 1, Observer: func(o Observation) { obs = append(obs, o) }}, testASN)
	rng := rand.New(rand.NewPCG(8, 8))
	for bin := 0; bin < 2; bin++ {
		at := t0.Add(time.Duration(bin) * time.Hour)
		for p := 1; p <= 30; p++ {
			d.Observe(mkResult(p, at, 9, 3, rng)) // far RTT < near RTT
		}
	}
	d.Flush()
	if len(obs) == 0 {
		t.Fatal("no observations")
	}
	if obs[0].Observed.Median >= 0 {
		t.Errorf("median ∆ = %v, want negative", obs[0].Observed.Median)
	}
}

// Ablation A1 in miniature: a bin contaminated by a few huge outliers must
// not trip the median detector, but does trip the mean baseline.
func TestMedianRobustToOutliersMeanIsNot(t *testing.T) {
	run := func(useMean bool) int {
		d := NewDetector(Config{Seed: 1, UseMeanCI: useMean}, testASN)
		rng := rand.New(rand.NewPCG(9, 9))
		alarms := 0
		for bin := 0; bin < 10; bin++ {
			at := t0.Add(time.Duration(bin) * time.Hour)
			for p := 1; p <= 30; p++ {
				rtt := 5.0
				// In later bins a couple of probes report wild outliers.
				if bin >= 5 && p <= 2 {
					rtt = 400
				}
				alarms += len(d.Observe(mkResult(p, at, 3, 3+rtt-3, rng)))
			}
		}
		alarms += len(d.Flush())
		return alarms
	}
	if n := run(false); n != 0 {
		t.Errorf("median detector fired %d alarms on outliers, want 0", n)
	}
	if n := run(true); n == 0 {
		t.Error("mean baseline should fire on outliers (that is why the paper rejects it)")
	}
}

func TestObserverSeesReferenceWarmup(t *testing.T) {
	var obs []Observation
	d := NewDetector(Config{Seed: 1, Observer: func(o Observation) { obs = append(obs, o) }}, testASN)
	rng := rand.New(rand.NewPCG(10, 10))
	for bin := 0; bin < 6; bin++ {
		feedBin(d, bin, 30, 0, rng)
	}
	d.Flush()
	if len(obs) != 6 {
		t.Fatalf("observations = %d, want 6", len(obs))
	}
	// First WarmupBins observations have an invalid reference.
	for i := 0; i < 3; i++ {
		if obs[i].Reference.Valid() {
			t.Errorf("bin %d reference should be warming up", i)
		}
	}
	for i := 3; i < 6; i++ {
		if !obs[i].Reference.Valid() {
			t.Errorf("bin %d reference should be primed", i)
		}
	}
}

func almostEq(a, b, eps float64) bool {
	if a > b {
		return a-b <= eps
	}
	return b-a <= eps
}

// TestObserveViewAllocationFree pins steady-state view ingestion at zero
// allocations: once the open bin's log has grown, ObserveView appends into
// recycled memory only.
func TestObserveViewAllocationFree(t *testing.T) {
	d := NewDetector(Config{Seed: 1}, testASN)
	rng := rand.New(rand.NewPCG(8, 8))
	var v trace.View
	ingest := func() { d.ObserveView(&v) }
	r := mkResult(1, t0, 5, 7, rng)
	d.intern.View(&r, &v)
	for i := 0; i < 300; i++ {
		ingest() // grow the log past what the next bin needs
	}
	r = mkResult(2, t0.Add(time.Hour), 5, 7, rng)
	d.intern.View(&r, &v)
	ingest() // closes the first bin; its alarm slice may allocate
	if n := testing.AllocsPerRun(200, ingest); n != 0 {
		t.Errorf("ObserveView allocates %v times per result, want 0", n)
	}
}
