// Package netsim simulates the substrate the paper measures: a router-level
// Internet with autonomous systems, directional links, shortest-path
// forwarding with independently computed (and usually asymmetric) return
// paths, anycast services, heavy-tailed delay noise, packet loss, and a
// scenario engine that injects the disruptions the paper studies
// (congestion, loss, reroutes, router silence, link failures).
//
// It replaces the real Internet + RIPE Atlas data plane of the paper.
// The substitution is behaviour-preserving for the detectors because they
// consume only traceroute results; see DESIGN.md, internal/netsim.
//
// # Model
//
//   - A Router is an IP interface with an owning AS and an ICMP response
//     probability; every router adds the same exponential slow-path delay
//     (mean slowPathMS) to the TTL-expired replies it generates.
//   - An Edge is a directional link with an IGP-like weight and a DelayModel
//     (base propagation + half-normal jitter + occasional heavy-tail spikes).
//     The two directions of a physical link are two edges whose weights
//     deliberately differ, which — together with ECMP tie-breaking — yields
//     the forward/return path asymmetry the paper's §3 is built around.
//   - Forwarding is destination-rooted shortest path ("toward trees").
//     Paris traceroute flow identifiers pick deterministically among
//     equal-cost next hops, so one flow sees one stable path.
//   - Services (unicast or anycast) attach an externally visible address to
//     one or more routers; replies from the service hop carry the service
//     address, which is how the paper observes "23 unique IP pairs
//     containing the K-root server address".
//   - A Scenario is a set of timed events; route-affecting events partition
//     time into epochs. Shortest-path trees are cached per epoch, and each
//     traceroute's route plan per (probe, destination, Paris id, epoch).
package netsim
