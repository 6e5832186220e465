package forwarding

import (
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"pinpoint/internal/ident"
	"pinpoint/internal/trace"
)

var (
	t0   = time.Date(2015, 5, 13, 0, 0, 0, 0, time.UTC)
	rtrR = netip.MustParseAddr("10.0.0.1")
	hopA = netip.MustParseAddr("10.0.1.1")
	hopB = netip.MustParseAddr("10.0.2.1")
	hopC = netip.MustParseAddr("10.0.3.1")
	dst1 = netip.MustParseAddr("198.51.100.1")
)

// addrPattern builds a map pattern from parallel slices.
func addrPattern(addrs []netip.Addr, counts []float64) map[netip.Addr]float64 {
	m := make(map[netip.Addr]float64)
	for i, a := range addrs {
		m[a] = counts[i]
	}
	return m
}

// TestFig4WorkedExample verifies the §5.2.2 numbers: reference
// [A,B,C,Z] = [10,100,0,5] against observed [10,1,89,30] yields ρ ≈ −0.6 and
// responsibilities ≈ (0, −0.28, 0.25, 0.07). The observed pattern is
// reconstructed from the published scores (DESIGN.md, internal/forwarding).
func TestFig4WorkedExample(t *testing.T) {
	ref := addrPattern([]netip.Addr{hopA, hopB, hopC, Unresponsive}, []float64{10, 100, 0, 5})
	cur := addrPattern([]netip.Addr{hopA, hopB, hopC, Unresponsive}, []float64{10, 1, 89, 30})
	rho, scores := Compare(cur, ref)
	if math.Abs(rho-(-0.6)) > 0.005 {
		t.Errorf("ρ = %v, want ≈ -0.6", rho)
	}
	want := map[netip.Addr]float64{hopA: 0, hopB: -0.28, hopC: 0.25, Unresponsive: 0.07}
	for _, s := range scores {
		if w, ok := want[s.Hop]; ok {
			if math.Abs(s.Responsibility-w) > 0.005 {
				t.Errorf("r(%v) = %v, want ≈ %v", s.Hop, s.Responsibility, w)
			}
		}
	}
	// The dominant responsibility is hop B's disappearance.
	top := scores[0]
	for _, s := range scores[1:] {
		if math.Abs(s.Responsibility) > math.Abs(top.Responsibility) {
			top = s
		}
	}
	if top.Hop != hopB {
		t.Errorf("max |r| hop = %v, want B", top.Hop)
	}
}

func TestCompareIdenticalPatterns(t *testing.T) {
	ref := addrPattern([]netip.Addr{hopA, hopB}, []float64{10, 100})
	rho, scores := Compare(ref, ref)
	if rho < 0.999 {
		t.Errorf("identical patterns ρ = %v, want 1", rho)
	}
	for _, s := range scores {
		if s.Responsibility != 0 {
			t.Errorf("identical patterns r(%v) = %v, want 0", s.Hop, s.Responsibility)
		}
	}
}

func TestCompareDegenerate(t *testing.T) {
	// Constant vectors have undefined correlation → NaN, no panic.
	a := addrPattern([]netip.Addr{hopA, hopB}, []float64{5, 5})
	rho, _ := Compare(a, a)
	if !math.IsNaN(rho) {
		t.Errorf("constant-vector ρ = %v, want NaN", rho)
	}
}

// mk builds a result R → next where the far hop's replies are given
// explicitly.
func mk(prb int, at time.Time, far []trace.Reply) trace.Result {
	return trace.Result{
		MsmID: 5001, PrbID: prb, Time: at,
		Src: netip.MustParseAddr("192.0.2.1"), Dst: dst1,
		Hops: []trace.Hop{
			{Index: 1, Replies: []trace.Reply{{From: rtrR, RTT: 1}, {From: rtrR, RTT: 1.1}, {From: rtrR, RTT: 0.9}}},
			{Index: 2, Replies: far},
		},
	}
}

func reply(a netip.Addr) trace.Reply { return trace.Reply{From: a, RTT: 5} }

// feed sends a bin where nA probes see next hop A and nB probes see next
// hop B (three packets each).
func feed(d *Detector, bin int, nA, nB int) []Alarm {
	var alarms []Alarm
	at := t0.Add(time.Duration(bin) * time.Hour)
	p := 1
	for i := 0; i < nA; i++ {
		alarms = append(alarms, d.Observe(mk(p, at, []trace.Reply{reply(hopA), reply(hopA), reply(hopA)}))...)
		p++
	}
	for i := 0; i < nB; i++ {
		alarms = append(alarms, d.Observe(mk(p, at, []trace.Reply{reply(hopB), reply(hopB), reply(hopB)}))...)
		p++
	}
	return alarms
}

func TestStablePatternNoAlarms(t *testing.T) {
	d := NewDetector(Config{})
	var alarms []Alarm
	for bin := 0; bin < 10; bin++ {
		alarms = append(alarms, feed(d, bin, 8, 2)...)
	}
	alarms = append(alarms, d.Flush()...)
	if len(alarms) != 0 {
		t.Errorf("stable pattern fired %d alarms", len(alarms))
	}
	if d.RoutersSeen() != 1 {
		t.Errorf("RoutersSeen = %d, want 1", d.RoutersSeen())
	}
}

func TestDetectsNextHopSwap(t *testing.T) {
	d := NewDetector(Config{})
	for bin := 0; bin < 6; bin++ {
		if a := feed(d, bin, 10, 0); len(a) != 0 {
			t.Fatalf("alarms during stable period at bin %d", bin)
		}
	}
	// All traffic shifts from A to B.
	alarms := feed(d, 6, 0, 10)
	alarms = append(alarms, d.Flush()...)
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d, want 1", len(alarms))
	}
	a := alarms[0]
	if a.Router != rtrR || a.Dst != dst1 {
		t.Errorf("alarm identity = %v→%v", a.Router, a.Dst)
	}
	if a.Rho >= -0.25 {
		t.Errorf("ρ = %v, want < τ", a.Rho)
	}
	var rA, rB float64
	for _, s := range a.Hops {
		switch s.Hop {
		case hopA:
			rA = s.Responsibility
		case hopB:
			rB = s.Responsibility
		}
	}
	if rA >= 0 {
		t.Errorf("r(A) = %v, want negative (hop disappeared)", rA)
	}
	if rB <= 0 {
		t.Errorf("r(B) = %v, want positive (hop newly dominant)", rB)
	}
}

// TestFlowNoEvictionByDefault pins the paper behavior (§5.1): a flow keeps
// its reference across an idle gap of any length, so a next-hop swap on the
// return bin alarms immediately.
func TestFlowNoEvictionByDefault(t *testing.T) {
	d := NewDetector(Config{})
	for bin := 0; bin < 6; bin++ {
		feed(d, bin, 10, 0)
	}
	alarms := feed(d, 10, 0, 10)
	alarms = append(alarms, d.Flush()...)
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d, want 1 (reference retained across the gap)", len(alarms))
	}
}

func TestDetectsPacketLoss(t *testing.T) {
	// The AMS-IX shape (§7.3): next hops stop responding, packets vanish
	// into the unresponsive bucket, responsibility of the real hop goes
	// negative and of Z positive.
	d := NewDetector(Config{})
	for bin := 0; bin < 6; bin++ {
		feed(d, bin, 10, 0)
	}
	at := t0.Add(6 * time.Hour)
	var alarms []Alarm
	for p := 1; p <= 10; p++ {
		alarms = append(alarms, d.Observe(mk(p, at, []trace.Reply{{Timeout: true}, {Timeout: true}, {Timeout: true}}))...)
	}
	alarms = append(alarms, d.Flush()...)
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d, want 1", len(alarms))
	}
	var rA, rZ float64
	for _, s := range alarms[0].Hops {
		switch s.Hop {
		case hopA:
			rA = s.Responsibility
		case Unresponsive:
			rZ = s.Responsibility
		}
	}
	if rA >= 0 || rZ <= 0 {
		t.Errorf("loss responsibilities r(A)=%v r(Z)=%v, want negative/positive", rA, rZ)
	}
	top, ok := alarms[0].MaxResponsibility()
	if !ok {
		t.Fatal("no hops in alarm")
	}
	if top.Hop != hopA && top.Hop != Unresponsive {
		t.Errorf("top responsibility = %v", top.Hop)
	}
}

func TestPerDestinationModels(t *testing.T) {
	// The same router must keep independent models per traceroute target.
	d := NewDetector(Config{})
	dst2 := netip.MustParseAddr("198.51.100.2")
	at := t0
	r1 := mk(1, at, []trace.Reply{reply(hopA), reply(hopA), reply(hopA)})
	r2 := mk(2, at, []trace.Reply{reply(hopB), reply(hopB), reply(hopB)})
	r2.Dst = dst2
	d.Observe(r1)
	d.Observe(r2)
	d.Flush()
	ref1, ok1 := d.referenceFor(flowKey{Router: rtrR, Dst: dst1})
	ref2, ok2 := d.referenceFor(flowKey{Router: rtrR, Dst: dst2})
	if !ok1 || !ok2 {
		t.Fatal("missing per-destination references")
	}
	if ref1[hopA] == 0 || ref1[hopB] != 0 {
		t.Errorf("dst1 reference polluted: %v", ref1)
	}
	if ref2[hopB] == 0 || ref2[hopA] != 0 {
		t.Errorf("dst2 reference polluted: %v", ref2)
	}
}

func TestMinPacketsGate(t *testing.T) {
	evaluated := 0
	d := NewDetector(Config{Observer: func(Observation) { evaluated++ }})
	// Bin 0 seeds the reference; bin 1 has only one traceroute (3 packets,
	// below the gate) → not evaluated.
	feed(d, 0, 5, 0)
	feed(d, 1, 1, 0)
	feed(d, 2, 5, 0) // rolls bin 1 out
	d.Flush()
	if evaluated != 1 {
		t.Errorf("evaluated = %d, want 1 (only the full bin)", evaluated)
	}
}

func TestECMPSplitWeights(t *testing.T) {
	// A near hop answered by two routers splits the far hop's packets
	// between both models at half weight.
	d := NewDetector(Config{})
	r := trace.Result{
		MsmID: 1, PrbID: 1, Time: t0,
		Src: netip.MustParseAddr("192.0.2.1"), Dst: dst1,
		Hops: []trace.Hop{
			{Index: 1, Replies: []trace.Reply{{From: rtrR, RTT: 1}, {From: hopC, RTT: 1}}},
			{Index: 2, Replies: []trace.Reply{reply(hopA), reply(hopA), reply(hopA)}},
		},
	}
	d.Observe(r)
	d.Flush()
	ref1, _ := d.referenceFor(flowKey{Router: rtrR, Dst: dst1})
	ref2, _ := d.referenceFor(flowKey{Router: hopC, Dst: dst1})
	if math.Abs(ref1[hopA]-1.5) > 1e-9 || math.Abs(ref2[hopA]-1.5) > 1e-9 {
		t.Errorf("split weights = %v / %v, want 1.5 each", ref1[hopA], ref2[hopA])
	}
	if d.RoutersSeen() != 2 {
		t.Errorf("RoutersSeen = %d, want 2", d.RoutersSeen())
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	if cfg := NewDetector(Config{}).Config(); cfg.BinSize != time.Hour {
		t.Errorf("defaults = %+v", cfg)
	}
	if alpha != 0.01 || tau != -0.25 || minPackets != 9 {
		t.Errorf("constants: alpha=%v tau=%v minPackets=%d", alpha, tau, minPackets)
	}
}

func TestReferenceDecaysUnseenHops(t *testing.T) {
	d := NewDetector(Config{})
	feed(d, 0, 4, 4)
	feed(d, 1, 8, 0) // B disappears
	d.Flush()
	ref, _ := d.referenceFor(flowKey{Router: rtrR, Dst: dst1})
	if ref[hopB] >= 12 {
		t.Errorf("unseen hop did not decay: %v", ref[hopB])
	}
	if ref[hopB] <= 0 {
		t.Errorf("unseen hop vanished instantly: %v", ref[hopB])
	}
}

func TestFlushIdempotent(t *testing.T) {
	d := NewDetector(Config{})
	feed(d, 0, 3, 0)
	d.Flush()
	if a := d.Flush(); a != nil {
		t.Errorf("second flush returned %v", a)
	}
}

// TestObserveViewAllocationFree pins steady-state view ingestion at zero
// allocations once the result's flows have their slots.
func TestObserveViewAllocationFree(t *testing.T) {
	d := NewDetector(Config{})
	r := mk(1, t0, []trace.Reply{reply(hopA), reply(hopB), {Timeout: true}})
	var v trace.View
	d.intern.View(&r, &v)
	ingest := func() { d.ObserveView(&v) }
	ingest()
	if n := testing.AllocsPerRun(200, ingest); n != 0 {
		t.Errorf("ObserveView allocates %v times per result, want 0", n)
	}
}

// TestWrappedHopNumbersNotPaired: hop numbers MaxInt then MinInt pass
// far == near+1 by wrapping; they are not adjacent, so the line (decoded as
// it is, both ways) contributes nothing.
func TestWrappedHopNumbersNotPaired(t *testing.T) {
	line := fmt.Sprintf(`{"msm_id":5001,"prb_id":1,"timestamp":1433116800,"src_addr":"192.0.2.1","dst_addr":"198.51.100.1","result":[`+
		`{"hop":%d,"result":[{"from":"10.0.0.2","rtt":1.5}]},{"hop":%d,"result":[{"from":"10.0.0.3","rtt":9.5}]}]}`, math.MaxInt, math.MinInt)
	in := ident.NewInterner(ident.NewRegistry())
	var v trace.View
	if err := new(trace.Decoder).DecodeView([]byte(line), in, &v); err != nil {
		t.Fatal(err)
	}
	var r trace.Result
	if err := r.UnmarshalJSON([]byte(line)); err != nil {
		t.Fatal(err)
	}
	fn := func(c Contribution) { t.Errorf("wrapped hop numbers contributed %+v", c) }
	ExtractView(in, &v, fn)
	ExtractContributions(in, r, fn)
}

// TestBinCloseAllocationFree is the pin BenchmarkFwdBinClose only reports:
// a warmed detector ingesting and closing an alarm-free bin allocates
// nothing, in either address family.
func TestBinCloseAllocationFree(t *testing.T) {
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			d, run := steadyCloser(fam.addr)
			step := func() {
				if alarms := run(); len(alarms) != 0 {
					t.Fatalf("steady fixture raised %d alarms", len(alarms))
				}
			}
			if n := testing.AllocsPerRun(50, step); n != 0 {
				t.Errorf("bin close allocates %v times per bin, want 0", n)
			}
			if cs := d.CloseStats(); cs.Flows == 0 {
				t.Error("fixture evaluated no pattern against a reference")
			}
		})
	}
}

// referenceFor returns a copy of the flow's current reference pattern; ok
// is false when the flow has no reference yet. It scans the detector's
// flows rather than interning the key, so asking leaves the registry as it
// was.
func (d *Detector) referenceFor(k flowKey) (map[netip.Addr]float64, bool) {
	for id, si := range d.slotOf {
		if si < 0 || !d.flows[si].hasRef {
			continue
		}
		if router, dst := d.reg.FlowAddrsOf(ident.FlowID(id)); router != k.Router || dst != k.Dst {
			continue
		}
		ref := d.refOf(&d.flows[si])
		out := make(map[netip.Addr]float64, len(ref))
		for _, h := range ref {
			out[d.reg.AddrOf(h.hop)] = h.v
		}
		return out, true
	}
	return nil, false
}
