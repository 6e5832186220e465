package forwarding

import (
	"net/netip"
	"testing"
	"time"

	"pinpoint/internal/ident"
	"pinpoint/internal/trace"
)

func BenchmarkObserve(b *testing.B) {
	d := NewDetector(Config{})
	replies := []trace.Reply{reply(hopA), reply(hopA), reply(hopB)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(mk(i%30+1, t0.Add(time.Duration(i/2000)*time.Hour), replies))
	}
}

func BenchmarkCompare(b *testing.B) {
	addrs := []netip.Addr{hopA, hopB, hopC, Unresponsive}
	ref := addrPattern(addrs, []float64{10, 100, 0, 5})
	cur := addrPattern(addrs, []float64{10, 1, 89, 30})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compare(cur, ref)
	}
}

// steadyBin returns a bin's contributions that repeat without alarms: 200
// routers toward 4 targets each, every flow splitting 12 packets over its
// three next hops and the unresponsive bucket in the same proportions every
// bin.
func steadyBin(reg *ident.Registry) []Contribution {
	var batch []Contribution
	for r := range 200 {
		router := reg.Addr(netip.AddrFrom4([4]byte{10, 0, byte(r), 1}))
		for dst := range 4 {
			c := Contribution{Flow: reg.Flow(router, reg.Addr(netip.AddrFrom4([4]byte{198, 51, 100, byte(dst)}))), Router: reg.Router(router), W: 1}
			for h, n := range []int{6, 3, 2, 1} {
				c.Hop = ident.ZeroAddr
				if h < 3 {
					c.Hop = reg.Addr(netip.AddrFrom4([4]byte{10, 1, byte(r), byte(h)}))
				}
				for range n {
					batch = append(batch, c)
				}
			}
		}
	}
	return batch
}

// steadyCloser returns a function that feeds a warmed detector the steady
// bin and closes it.
func steadyCloser() (d *Detector, run func() []Alarm) {
	d = NewDetector(Config{})
	batch := steadyBin(d.Registry())
	bin := t0
	run = func() []Alarm {
		d.BeginBin(bin)
		for _, c := range batch {
			d.IngestContribution(c)
		}
		bin = bin.Add(time.Hour)
		return d.Flush()
	}
	for range 4 {
		run() // seed the references and warm every scratch buffer
	}
	return d, run
}

// BenchmarkFwdBinClose is a warmed forwarding detector taking one bin of
// contributions and closing it: every pattern is evaluated against its
// reference and folded into it. The bin is alarm-free, the quiet network's
// floor, and must run with 0 allocs/op (TestBinCloseAllocationFree).
func BenchmarkFwdBinClose(b *testing.B) {
	_, run := steadyCloser()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alarms := run(); len(alarms) != 0 {
			b.Fatalf("steady-state fixture emitted %d alarms", len(alarms))
		}
	}
}
