package netsim

import (
	"fmt"
	"testing"
	"time"
)

var (
	scT0 = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	scT1 = scT0.Add(1 * time.Hour)
	scT2 = scT0.Add(2 * time.Hour)
	scT3 = scT0.Add(3 * time.Hour)
)

// scenarioNet builds routers 0..8 with one link 1–2 under s, so the state
// tests read the per-edge and per-router event lists Build compiled — the
// lists the traceroute path folds with linkState and routerState.
func scenarioNet(t *testing.T, s *Scenario) (n *Net, ab, ba EdgeID) {
	t.Helper()
	b := NewBuilder()
	b.AS(100, "a", "10.0.100.0/24")
	for i := range 9 {
		b.Router(100, fmt.Sprintf("r%d", i), RouterOpts{ResponseProb: 1})
	}
	ab, ba = b.Link(1, 2, LinkOpts{DelayMS: 1})
	n, err := b.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	return n, ab, ba
}

func TestLinkStateOverlappingEvents(t *testing.T) {
	n, ab, ba := scenarioNet(t, NewScenario(
		Event{Name: "c1", Kind: EventCongestion, From: 1, To: 2, ExtraDelayMS: 10, Loss: 0.6, Start: scT0, End: scT2},
		Event{Name: "c2", Kind: EventCongestion, From: 1, To: 2, ExtraDelayMS: 5, Loss: 0.7, Start: scT1, End: scT3},
		Event{Name: "down", Kind: EventLinkDown, From: 1, To: 2, Start: scT1, End: scT2},
	))
	// Only c1 active.
	if ms, loss, down := linkState(n.linkEvents[ab], scT0); ms != 10 || loss != 0.6 || down {
		t.Errorf("at t0: got (%v, %v, %v), want (10, 0.6, false)", ms, loss, down)
	}
	// Overlap: delays add, loss clamps to 1, down wins.
	if ms, loss, down := linkState(n.linkEvents[ab], scT1); ms != 15 || loss != 1 || !down {
		t.Errorf("at t1: got (%v, %v, %v), want (15, 1, true)", ms, loss, down)
	}
	// c2 alone after c1 and the link-down end.
	if ms, loss, down := linkState(n.linkEvents[ab], scT2); ms != 5 || loss != 0.7 || down {
		t.Errorf("at t2: got (%v, %v, %v), want (5, 0.7, false)", ms, loss, down)
	}
	// Directionality: none of the events touch 2→1.
	if ms, loss, down := linkState(n.linkEvents[ba], scT1); ms != 0 || loss != 0 || down {
		t.Errorf("reverse dir: got (%v, %v, %v), want zeros", ms, loss, down)
	}
}

func TestRouterStateOverlappingEvents(t *testing.T) {
	n, _, _ := scenarioNet(t, NewScenario(
		Event{Name: "hush", Kind: EventSilence, Router: 7, Start: scT0, End: scT2},
		Event{Name: "b1", Kind: EventBlackhole, Router: 7, Loss: 0.5, Start: scT0, End: scT2},
		Event{Name: "b2", Kind: EventBlackhole, Router: 7, Loss: 0.8, Start: scT1, End: scT3},
	))
	if silent, drop := routerState(n.routerEvents[7], scT0); !silent || drop != 0.5 {
		t.Errorf("at t0: got (%v, %v), want (true, 0.5)", silent, drop)
	}
	// Overlapping blackholes: drop probability clamps to 1.
	if silent, drop := routerState(n.routerEvents[7], scT1); !silent || drop != 1 {
		t.Errorf("at t1: got (%v, %v), want (true, 1)", silent, drop)
	}
	if silent, drop := routerState(n.routerEvents[7], scT2); silent || drop != 0.8 {
		t.Errorf("at t2: got (%v, %v), want (false, 0.8)", silent, drop)
	}
	if silent, drop := routerState(n.routerEvents[8], scT1); silent || drop != 0 {
		t.Errorf("other router: got (%v, %v), want (false, 0)", silent, drop)
	}
}

// Zero-duration events are rejected by Build, but NewScenario accepts them
// (scenarios can be assembled programmatically before validation); the
// half-open [Start, End) semantics make them inert everywhere.
func TestZeroDurationEventIsInert(t *testing.T) {
	ev := Event{Name: "blip", Kind: EventCongestion, From: 1, To: 2, ExtraDelayMS: 99, Start: scT1, End: scT1}
	if ev.Active(scT1) {
		t.Error("zero-duration event reports active at its own instant")
	}
	for _, at := range []time.Time{scT0, scT1, scT1.Add(time.Nanosecond), scT2} {
		if ms, loss, down := linkState([]*Event{&ev}, at); ms != 0 || loss != 0 || down {
			t.Errorf("at %v: got (%v, %v, %v), want zeros", at, ms, loss, down)
		}
	}
	// A zero-duration route-affecting event never flips an epoch key bit.
	zr := NewScenario(Event{Name: "flap", Kind: EventLinkDown, From: 1, To: 2, Start: scT1, End: scT1})
	for _, at := range []time.Time{scT0, scT1, scT2} {
		if zr.EpochKey(at) != 0 {
			t.Errorf("zero-duration event flips the epoch key at %v", at)
		}
	}
	// Build rejects non-positive durations outright.
	b := NewBuilder()
	b.AS(100, "a", "10.0.100.0/24")
	r1 := b.Router(100, "r1", RouterOpts{ResponseProb: 1})
	r2 := b.Router(100, "r2", RouterOpts{ResponseProb: 1})
	b.Link(r1, r2, LinkOpts{DelayMS: 1})
	if _, err := b.Build(NewScenario(Event{Name: "blip", Kind: EventCongestion, From: r1, To: r2, Start: scT1, End: scT1})); err == nil {
		t.Error("Build accepted a zero-duration event")
	}
}

func TestEpochBoundariesSharedStart(t *testing.T) {
	s := NewScenario(
		Event{Name: "r1", Kind: EventReroute, From: 1, To: 2, WeightFactor: 10, Start: scT1, End: scT2},
		Event{Name: "r2", Kind: EventLinkDown, From: 3, To: 4, Start: scT1, End: scT3},
		Event{Name: "cosmetic", Kind: EventCongestion, From: 1, To: 2, ExtraDelayMS: 1, Start: scT0, End: scT3},
	)
	// Two route-affecting events share scT1; congestion moves no epoch
	// boundary. The key changes at scT1, scT2 and scT3 and nowhere else:
	// both active in [t1, t2), only r2 in [t2, t3).
	for _, b := range []time.Time{scT1, scT2, scT3} {
		if s.EpochKey(b.Add(-time.Nanosecond)) == s.EpochKey(b) {
			t.Errorf("epoch key does not change at %v", b)
		}
	}
	if s.EpochKey(scT0.Add(-time.Nanosecond)) != s.EpochKey(scT0) {
		t.Error("congestion start changed the epoch key")
	}
	if k := s.EpochKey(scT0); k != 0 {
		t.Errorf("key(t0) = %b, want 0", k)
	}
	if k := s.EpochKey(scT1); k != 0b11 {
		t.Errorf("key(t1) = %b, want 11", k)
	}
	if k := s.EpochKey(scT2); k != 0b10 {
		t.Errorf("key(t2) = %b, want 10", k)
	}
	if k := s.EpochKey(scT3); k != 0 {
		t.Errorf("key(t3) = %b, want 0", k)
	}
}
