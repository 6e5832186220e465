package netsim

import (
	"fmt"
	"time"
)

// EventKind enumerates the disruption types the scenario engine can inject.
type EventKind int

// Event kinds. Congestion and Loss alter packets on a link direction;
// Silence and Blackhole alter a router; LinkDown and Reroute alter routing
// and therefore define epoch boundaries.
const (
	// EventCongestion adds ExtraDelayMS (and optionally Loss) to a link
	// direction — the paper's DDoS and route-leak case studies.
	EventCongestion EventKind = iota
	// EventLoss adds per-packet loss probability to a link direction.
	EventLoss
	// EventLinkDown removes a link direction from routing and drops all
	// packets on it. Route-affecting.
	EventLinkDown
	// EventReroute multiplies the routing weight of a link direction by
	// WeightFactor, diverting flows. Route-affecting.
	EventReroute
	// EventSilence stops a router from generating ICMP replies while still
	// forwarding traffic (the hop turns into "*" in traceroutes).
	EventSilence
	// EventBlackhole makes a router drop transiting packets with
	// probability Loss — the AMS-IX outage shape (§7.3).
	EventBlackhole
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventCongestion:
		return "congestion"
	case EventLoss:
		return "loss"
	case EventLinkDown:
		return "link-down"
	case EventReroute:
		return "reroute"
	case EventSilence:
		return "silence"
	case EventBlackhole:
		return "blackhole"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one timed disruption. The half-open interval [Start, End)
// delimits when it is active. Link events target the direction From→To;
// set Both to affect both directions. Router events target Router.
type Event struct {
	Name  string
	Kind  EventKind
	Start time.Time
	End   time.Time

	From, To RouterID // link-directed kinds
	Both     bool
	Router   RouterID // router-directed kinds

	ExtraDelayMS float64 // EventCongestion
	Loss         float64 // EventCongestion, EventLoss, EventBlackhole
	WeightFactor float64 // EventReroute
}

// Active reports whether the event applies at time t.
func (e Event) Active(t time.Time) bool {
	return !t.Before(e.Start) && t.Before(e.End)
}

func (e Event) routeAffecting() bool {
	return e.Kind == EventLinkDown || e.Kind == EventReroute
}

func (e Event) isLinkKind() bool {
	switch e.Kind {
	case EventCongestion, EventLoss, EventLinkDown, EventReroute:
		return true
	}
	return false
}

func (e Event) matchesDir(from, to RouterID) bool {
	if e.From == from && e.To == to {
		return true
	}
	return e.Both && e.From == to && e.To == from
}

// Scenario is a set of events. The zero value is an empty scenario.
// Scenarios are immutable once attached to a Net via Builder.Build, which
// compiles them into per-edge and per-router event lists for the traceroute
// engine.
type Scenario struct {
	events   []Event
	routeIdx []int // indices of route-affecting events (≤ 64)
}

// NewScenario wraps the given events. It panics when more than 64
// route-affecting events are supplied (the epoch key is a 64-bit mask; no
// realistic scenario comes close).
func NewScenario(events ...Event) *Scenario {
	s := &Scenario{events: events}
	for i, e := range events {
		if e.routeAffecting() {
			s.routeIdx = append(s.routeIdx, i)
		}
	}
	if len(s.routeIdx) > 64 {
		panic("netsim: more than 64 route-affecting events")
	}
	return s
}

// Events returns the scenario's events.
func (s *Scenario) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events
}

// EpochKey returns a bitmask identifying which route-affecting events are
// active at t. Two instants with equal keys share identical routing.
func (s *Scenario) EpochKey(t time.Time) uint64 {
	if s == nil {
		return 0
	}
	var key uint64
	for bit, idx := range s.routeIdx {
		if s.events[idx].Active(t) {
			key |= 1 << uint(bit)
		}
	}
	return key
}

// linkState folds the events attached to one link direction at time t.
func linkState(evs []*Event, t time.Time) (extraMS, loss float64, down bool) {
	for _, e := range evs {
		if !e.Active(t) {
			continue
		}
		switch e.Kind {
		case EventCongestion:
			extraMS += e.ExtraDelayMS
			loss += e.Loss
		case EventLoss:
			loss += e.Loss
		case EventLinkDown:
			down = true
		}
	}
	if loss > 1 {
		loss = 1
	}
	return extraMS, loss, down
}

// routerState folds the events attached to one router at time t.
func routerState(evs []*Event, t time.Time) (silent bool, dropProb float64) {
	for _, e := range evs {
		if !e.Active(t) {
			continue
		}
		switch e.Kind {
		case EventSilence:
			silent = true
		case EventBlackhole:
			dropProb += e.Loss
		}
	}
	if dropProb > 1 {
		dropProb = 1
	}
	return silent, dropProb
}

// edgeWeight returns the routing weight of e under the given epoch and
// whether the edge is down. Epochs encode exactly the set of active
// route-affecting events, so evaluation needs no timestamp.
func (s *Scenario) edgeWeight(e *Edge, epoch uint64) (w float64, down bool) {
	w = e.Weight
	if s == nil {
		return w, false
	}
	for bit, idx := range s.routeIdx {
		if epoch&(1<<uint(bit)) == 0 {
			continue
		}
		ev := s.events[idx]
		if !ev.matchesDir(e.From, e.To) {
			continue
		}
		switch ev.Kind {
		case EventLinkDown:
			return w, true
		case EventReroute:
			w *= ev.WeightFactor
		}
	}
	return w, false
}
