package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pinpoint/internal/trace"
)

// TestRunPlatformFusedMatchesSequential drives the fused pipeline (parallel
// generator workers feeding the sharded engine with no intermediate channel
// hop) and asserts its retained alarms, statistics and result count are
// identical to the classic sequential Observe loop.
func TestRunPlatformFusedMatchesSequential(t *testing.T) {
	end := start.Add(24 * time.Hour)

	p1, _, _, _ := buildAttack(t)
	base := New(Config{RetainAlarms: true}, p1.ProbeASN, p1.Net().Prefixes())
	if err := p1.Run(start, end, func(r trace.Result) error {
		base.Observe(r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	base.Flush()

	p2, _, _, _ := buildAttack(t)
	p2.SetWorkers(3)
	fused := New(Config{RetainAlarms: true, Workers: 2}, p2.ProbeASN, p2.Net().Prefixes())
	defer fused.Close()
	observed, last := 0, time.Time{}
	if err := fused.RunPlatform(context.Background(), p2, start, end, func(n int, first, batchLast time.Time) {
		if first.Before(last) || batchLast.Before(first) {
			t.Errorf("batch [%v, %v] out of order after %v", first, batchLast, last)
		}
		observed, last = observed+n, batchLast
	}); err != nil {
		t.Fatal(err)
	}

	if base.Results() == 0 || fused.Results() != base.Results() || observed != base.Results() {
		t.Fatalf("results: fused %d (observers saw %d), sequential %d", fused.Results(), observed, base.Results())
	}
	if !reflect.DeepEqual(base.DelayAlarms(), fused.DelayAlarms()) {
		t.Errorf("delay alarms differ: fused %d, sequential %d",
			len(fused.DelayAlarms()), len(base.DelayAlarms()))
	}
	if !reflect.DeepEqual(base.ForwardingAlarms(), fused.ForwardingAlarms()) {
		t.Errorf("forwarding alarms differ: fused %d, sequential %d",
			len(fused.ForwardingAlarms()), len(base.ForwardingAlarms()))
	}
	if base.LinksSeen() != fused.LinksSeen() {
		t.Errorf("links seen: fused %d, sequential %d", fused.LinksSeen(), base.LinksSeen())
	}
	if base.RoutersSeen() != fused.RoutersSeen() {
		t.Errorf("routers seen: fused %d, sequential %d", fused.RoutersSeen(), base.RoutersSeen())
	}
}

func TestRunPlatformCancel(t *testing.T) {
	p, _, _, _ := buildAttack(t)
	p.SetWorkers(2)
	a := New(Config{Workers: 2}, p.ProbeASN, p.Net().Prefixes())
	defer a.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := a.RunPlatform(ctx, p, start, start.Add(1000*time.Hour))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The canceled run already flushed; the analyzer must remain usable and
	// idempotent.
	a.Flush()
}
