package forwarding

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"slices"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"pinpoint/internal/hash"
	"pinpoint/internal/ident"
)

// TestSlotLayout pins the per-flow record and the hop entry its arenas
// hold: a flow is an epoch, two flags, a packed key and two spans.
func TestSlotLayout(t *testing.T) {
	if n := unsafe.Sizeof(flowState{}); n > 40 {
		t.Errorf("flowState is %d bytes, want ≤ 40", n)
	}
	if n := unsafe.Sizeof(hopCount{}); n > 16 {
		t.Errorf("hopCount is %d bytes, want ≤ 16", n)
	}
}

// shadowFlow is one flow of the map-based model: this bin's pattern and the
// Eq 8 reference, nil until seeded.
type shadowFlow struct {
	key      FlowKey
	epoch    int
	cur, ref map[netip.Addr]float64
}

// shadow is the forwarding model written over maps, the oracle the
// detector's arenas are checked against: the same gate, ρ from the
// exported Compare, and Eq 8 hop by hop.
type shadow struct {
	flows   map[FlowKey]*shadowFlow
	touched []*shadowFlow
	epoch   int
}

func (s *shadow) add(k FlowKey, hop netip.Addr, w float64, touch bool) {
	f := s.flows[k]
	if f == nil {
		f = &shadowFlow{key: k, epoch: -1}
		s.flows[k] = f
	}
	if f.epoch != s.epoch {
		f.epoch = s.epoch
		f.cur = map[netip.Addr]float64{}
		s.touched = append(s.touched, f)
	}
	if !touch {
		f.cur[hop] += w
	}
}

func (s *shadow) close(bin time.Time) (alarms []Alarm, obs []Observation) {
	slices.SortFunc(s.touched, func(a, b *shadowFlow) int { return cmpFlowKey(a.key, b.key) })
	for _, f := range s.touched {
		total := 0.0
		for _, v := range f.cur {
			total += v
		}
		if f.ref != nil && total >= minPackets {
			rho, scores := Compare(f.cur, f.ref)
			anomalous := !math.IsNaN(rho) && rho < tau
			if anomalous {
				alarms = append(alarms, Alarm{Bin: bin, Router: f.key.Router, Dst: f.key.Dst, Rho: rho, Hops: scores})
			}
			obs = append(obs, Observation{Bin: bin, Router: f.key.Router, Dst: f.key.Dst, Rho: rho, Anomalous: anomalous, Packets: total})
		}
		if f.ref == nil {
			f.ref = map[netip.Addr]float64{}
			for h, v := range f.cur {
				f.ref[h] = v
			}
			continue
		}
		for h := range f.cur {
			if _, ok := f.ref[h]; !ok {
				f.ref[h] = 0
			}
		}
		for h, v := range f.ref {
			f.ref[h] = alpha*f.cur[h] + (1-alpha)*v
		}
	}
	s.touched = s.touched[:0]
	s.epoch++
	return alarms, obs
}

func cmpFlowKey(a, b FlowKey) int {
	if c := a.Router.Compare(b.Router); c != 0 {
		return c
	}
	return a.Dst.Compare(b.Dst)
}

// sameFloat is bit equality, with every NaN equal to every NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sameAlarm(a, b Alarm) bool {
	if !a.Bin.Equal(b.Bin) || a.Router != b.Router || a.Dst != b.Dst || !sameFloat(a.Rho, b.Rho) || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i, h := range a.Hops {
		g := b.Hops[i]
		if h.Hop != g.Hop || !sameFloat(h.Responsibility, g.Responsibility) || !sameFloat(h.Count, g.Count) || !sameFloat(h.RefCount, g.RefCount) {
			return false
		}
	}
	return true
}

// slotsRun is one sharded detector set under test: w detectors over one
// registry, each contribution routed by its router's ID with the engine's
// shard hash, so each detector owns about 1/w of the flows.
type slotsRun struct {
	reg  *ident.Registry
	dets []*Detector
	obs  []Observation

	// Per detector: the largest pattern and reference arena lengths seen.
	patPeak, refPeak []int
	compactions      int
}

func newSlotsRun(w int) *slotsRun {
	r := &slotsRun{reg: ident.NewRegistry(), patPeak: make([]int, w), refPeak: make([]int, w)}
	for range w {
		r.dets = append(r.dets, NewDetector(Config{Registry: r.reg, Observer: func(o Observation) { r.obs = append(r.obs, o) }}))
	}
	return r
}

func (r *slotsRun) add(k FlowKey, hop netip.Addr, w float64, touch bool) {
	router := r.reg.Addr(k.Router)
	c := Contribution{Flow: r.reg.Flow(router, r.reg.Addr(k.Dst)), Router: r.reg.Router(router), W: w, Touch: touch}
	if !touch {
		c.Hop = r.reg.Addr(hop)
	}
	r.owner(c.Router).IngestContribution(c)
}

func (r *slotsRun) owner(id ident.RouterID) *Detector {
	return r.dets[hash.Mix64(uint64(id), 0x1d)%uint64(len(r.dets))]
}

// close flushes every detector and checks its arenas: at most a quarter as
// many dead reference entries as live ones, and no arena (nor the slot
// array) holding more than an eighth of slack over its peak length.
func (r *slotsRun) close(t *testing.T) (alarms []Alarm, obs []Observation) {
	t.Helper()
	r.obs = r.obs[:0]
	within := func(c, peak int) bool { return c <= max(64, peak+peak/8) }
	for i, d := range r.dets {
		r.patPeak[i] = max(r.patPeak[i], len(d.pat))
		dead := d.refDead
		alarms = append(alarms, d.Flush()...)
		if d.refDead < dead {
			r.compactions++
		}
		r.refPeak[i] = max(r.refPeak[i], len(d.refs))
		live := 0
		for _, fs := range d.flows {
			live += int(fs.ref.n)
		}
		if dead := len(d.refs) - live; dead != d.refDead || dead > live/4 {
			t.Fatalf("detector %d: %d dead reference entries (counted %d), %d live", i, dead, d.refDead, live)
		}
		if !within(cap(d.pat), r.patPeak[i]) || !within(cap(d.refs), r.refPeak[i]) {
			t.Fatalf("detector %d: arena capacities %d/%d over peaks %d/%d", i, cap(d.pat), cap(d.refs), r.patPeak[i], r.refPeak[i])
		}
		if !within(cap(d.flows), len(d.flows)) {
			t.Fatalf("detector %d: %d flow slots in a capacity of %d", i, len(d.flows), cap(d.flows))
		}
	}
	slices.SortFunc(alarms, func(a, b Alarm) int { return cmpFlowKey(FlowKey{a.Router, a.Dst}, FlowKey{b.Router, b.Dst}) })
	obs = slices.Clone(r.obs)
	slices.SortFunc(obs, func(a, b Observation) int { return cmpFlowKey(FlowKey{a.Router, a.Dst}, FlowKey{b.Router, b.Dst}) })
	return alarms, obs
}

// TestSlotsMatchMapModel drives sharded detectors and the map-based shadow
// with one seeded random contribution stream: flows that gain next hops
// late (so references move and the reference arena compacts), flows idle
// for several bins, IPv6 flows that send a close to the comparison order,
// and, on one detector, a flow with more than 65 536 distinct next hops in
// a bin. Every close's alarms and ρ values, every reference and the
// reference statistics must equal the shadow's bit for bit.
func TestSlotsMatchMapModel(t *testing.T) {
	for _, w := range []int{1, 3} {
		t.Run("W="+strconv.Itoa(w), func(t *testing.T) { testSlotsMatchMapModel(t, w) })
	}
}

func testSlotsMatchMapModel(t *testing.T, w int) {
	const (
		bins    = 36
		bigBin  = 20
		bigHops = 70000
	)
	rng := rand.New(rand.NewPCG(38, uint64(w)))
	run := newSlotsRun(w)
	sh := &shadow{flows: map[FlowKey]*shadowFlow{}}
	add := func(k FlowKey, hop netip.Addr, wt float64, touch bool) {
		run.add(k, hop, wt, touch)
		sh.add(k, hop, wt, touch)
	}

	// 60 IPv4 routers toward 3 targets each, 4 IPv6 routers toward 2. Each
	// flow starts with two or three next hops and one it prefers; weights
	// are dyadic, so every packet total is exact in any summation order.
	type flow struct {
		key    FlowKey
		hops   []netip.Addr
		prefer int
	}
	var flows []*flow
	newHop := uint32(0x0a020000) // 10.2.0.0 onwards: hops that appear late
	for r := range 64 {
		router := netip.AddrFrom4([4]byte{10, 0, byte(r), 1})
		ndst := 3
		if r >= 60 {
			router = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(r)})
			ndst = 2
		}
		for d := range ndst {
			f := &flow{key: FlowKey{router, netip.AddrFrom4([4]byte{198, 51, 100, byte(d)})}}
			for h := range 2 + rng.IntN(2) {
				if router.Is4() {
					f.hops = append(f.hops, netip.AddrFrom4([4]byte{10, 1, byte(r), byte(h)}))
				} else {
					f.hops = append(f.hops, netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 1, 14: byte(r), 15: byte(h)}))
				}
			}
			flows = append(flows, f)
		}
	}
	big := FlowKey{netip.MustParseAddr("10.9.0.1"), netip.MustParseAddr("198.51.100.250")}

	var alarms, evaluated int
	for b := range bins {
		bin := t0.Add(time.Duration(b) * time.Hour)
		for _, d := range run.dets {
			d.BeginBin(bin)
		}
		for i, f := range flows {
			// A fifth of the flows sit out bins 8–13; every flow skips a
			// bin now and then, and IPv6 flows show up in few bins.
			if i%5 == 0 && b >= 8 && b < 14 || rng.IntN(8) == 0 || !f.key.Router.Is4() && rng.IntN(3) != 0 {
				continue
			}
			if rng.IntN(6) == 0 {
				f.prefer = rng.IntN(len(f.hops))
			}
			if rng.IntN(4) == 0 {
				f.hops = append(f.hops, netip.AddrFrom4([4]byte{byte(newHop >> 24), byte(newHop >> 16), byte(newHop >> 8), byte(newHop)}))
				newHop++
			}
			for range 4 + rng.IntN(12) {
				switch x := rng.IntN(20); {
				case x == 0:
					add(f.key, netip.Addr{}, 0, true)
				case x == 1:
					add(f.key, Unresponsive, 0.5, false)
				case x < 12:
					add(f.key, f.hops[f.prefer], 1, false)
				default:
					add(f.key, f.hops[rng.IntN(len(f.hops))], []float64{1, 0.5, 0.25}[rng.IntN(3)], false)
				}
			}
		}
		switch {
		case w > 1:
			// The big flow costs a second a run; one run covers it.
		case b == bigBin:
			// Seeds one reference with more next hops than a uint16 counts.
			for i := range bigHops {
				add(big, netip.AddrFrom4([4]byte{11, byte(i >> 16), byte(i >> 8), byte(i)}), 0.25, false)
			}
		case b == bigBin+2 || b == bigBin+5:
			// Too few packets to evaluate, but a new hop moves the whole
			// reference to the arena's end.
			add(big, netip.AddrFrom4([4]byte{12, 0, 0, byte(b)}), 1, false)
		}

		got, gotObs := run.close(t)
		want, wantObs := sh.close(bin)
		if len(got) != len(want) {
			t.Fatalf("bin %d: %d alarms, shadow %d", b, len(got), len(want))
		}
		for i := range got {
			if !sameAlarm(got[i], want[i]) {
				t.Fatalf("bin %d alarm %d:\n got %+v\nwant %+v", b, i, got[i], want[i])
			}
		}
		if len(gotObs) != len(wantObs) {
			t.Fatalf("bin %d: %d evaluated patterns, shadow %d", b, len(gotObs), len(wantObs))
		}
		for i, o := range gotObs {
			s := wantObs[i]
			if o.Router != s.Router || o.Dst != s.Dst || !sameFloat(o.Rho, s.Rho) || o.Anomalous != s.Anomalous || !sameFloat(o.Packets, s.Packets) {
				t.Fatalf("bin %d pattern %d: got %+v, shadow %+v", b, i, o, s)
			}
		}
		alarms += len(got)
		evaluated += len(gotObs)

		models, nextHops := 0, 0
		for k, f := range sh.flows {
			if f.ref == nil {
				continue
			}
			models++
			for h := range f.ref {
				if h.IsValid() {
					nextHops++
				}
			}
			owner := run.owner(run.reg.Router(run.reg.Addr(k.Router)))
			for _, d := range run.dets {
				ref, ok := d.ReferenceFor(k)
				if d != owner {
					if ok {
						t.Fatalf("bin %d: %v has a reference on a detector that does not own it", b, k)
					}
					continue
				}
				if !ok || len(ref) != len(f.ref) {
					t.Fatalf("bin %d: %v reference has %d hops (ok=%v), shadow %d", b, k, len(ref), ok, len(f.ref))
				}
				for h, v := range f.ref {
					if g, ok := ref[h]; !ok || !sameFloat(g, v) {
						t.Fatalf("bin %d: %v reference[%v] = %v, shadow %v", b, k, h, g, v)
					}
				}
			}
		}
		gotModels, gotHops := 0, 0
		for _, d := range run.dets {
			m, h := d.RefStats()
			gotModels, gotHops = gotModels+m, gotHops+h
		}
		if gotModels != models || gotHops != nextHops {
			t.Fatalf("bin %d: RefStats %d models / %d next hops, shadow %d / %d", b, gotModels, gotHops, models, nextHops)
		}
	}
	if alarms == 0 || evaluated == 0 || run.compactions == 0 {
		t.Errorf("stream raised %d alarms over %d evaluated patterns and %d compactions: want all three", alarms, evaluated, run.compactions)
	}
}
