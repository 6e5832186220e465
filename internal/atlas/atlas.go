// Package atlas simulates the RIPE Atlas measurement platform of §2:
// probes hosted in stub networks continuously run Paris traceroutes toward
// builtin targets (the anycast DNS root servers, every 30 minutes) and
// anchoring targets (anchors, every 15 minutes), producing a stream of
// results in time order.
//
// The platform replaces the paper's 2.8-billion-traceroute dataset; scale is
// a config knob, the result schema and cadences are the paper's.
//
// Generation is deterministic and parallelizable: every (measurement,
// probe, firing time) task is independently seeded via hash.Fold, an
// incremental min-heap scheduler emits tasks in exact chronological order
// using O(streams) memory, and the tasks execute on SetWorkers(n) workers of
// one pipeline.Ordered call, which delivers them back in schedule order — the
// stream is bit-identical for any worker count.
package atlas

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"pinpoint/internal/hash"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/pipeline"
	"pinpoint/internal/trace"
)

// Builtin and anchoring measurement cadences from §2.
const (
	BuiltinInterval   = 30 * time.Minute
	AnchoringInterval = 15 * time.Minute
)

// Probe is one vantage point, attached to a router of the simulated network.
// Every probe is connected for the whole run. The paper's dataset has churn
// (11,538 probes connected at some point during the eight months, ~10,000 at
// any instant); the simulator does not model it.
type Probe struct {
	ID     int
	Router netsim.RouterID
	ASN    ipmap.ASN
	Anchor bool // anchors are "super probes" (§2)
}

// Kind distinguishes the two repetitive measurement classes of §2.
type Kind int

// Measurement kinds.
const (
	Builtin Kind = iota
	Anchoring
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Builtin {
		return "builtin"
	}
	return "anchoring"
}

// Measurement is one repetitive traceroute measurement toward a target.
type Measurement struct {
	ID       int
	Kind     Kind
	Target   netip.Addr
	Interval time.Duration
	Probes   []int // participating probe IDs
}

// Platform schedules measurements over a simulated network.
type Platform struct {
	net     *netsim.Net
	seed    uint64
	opts    netsim.TracerouteOpts
	probes  []Probe // dense: probes[i].ID == i+1
	msms    []Measurement
	nextID  int
	workers int // generator workers; 1 runs inline on the caller's goroutine
}

// NewPlatform returns an empty platform over the given network. The seed
// determines all measurement noise; equal seeds give bit-identical streams.
func NewPlatform(n *netsim.Net, seed uint64, opts netsim.TracerouteOpts) *Platform {
	return &Platform{
		net:     n,
		seed:    seed,
		opts:    opts,
		nextID:  5000, // Atlas-like measurement IDs start at 5000
		workers: 1,
	}
}

// Net returns the underlying network.
func (p *Platform) Net() *netsim.Net { return p.net }

// SetWorkers sets how many workers Run, RunChunks and Collect execute
// traceroutes on. n <= 0 means GOMAXPROCS; 1 (the default) runs everything
// inline on the caller's goroutine. Every task is independently seeded and
// results are emitted in schedule order, so the result stream is
// bit-identical for every worker count.
func (p *Platform) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p.workers = n
}

// Workers returns the configured generator worker count.
func (p *Platform) Workers() int { return p.workers }

// AddProbe attaches a probe to a router, deriving its ASN from the router's
// operator AS. Probe IDs are assigned sequentially from 1; the platform
// stores probes densely by ID, so hot-path lookups are slice indexing.
func (p *Platform) AddProbe(router netsim.RouterID, anchor bool) Probe {
	id := len(p.probes) + 1
	pr := Probe{ID: id, Router: router, ASN: p.net.Router(router).AS, Anchor: anchor}
	p.probes = append(p.probes, pr)
	return pr
}

// AddProbes attaches one probe per router.
func (p *Platform) AddProbes(routers []netsim.RouterID) []Probe {
	out := make([]Probe, 0, len(routers))
	for _, r := range routers {
		out = append(out, p.AddProbe(r, false))
	}
	return out
}

// Probes returns all probes in ID order.
func (p *Platform) Probes() []Probe {
	out := make([]Probe, len(p.probes))
	copy(out, p.probes)
	return out
}

// Probe returns the probe with the given id.
func (p *Platform) Probe(id int) (Probe, bool) {
	if id < 1 || id > len(p.probes) {
		return Probe{}, false
	}
	return p.probes[id-1], true
}

// ProbeASN resolves a probe id to its AS number; the delay analyzer's
// probe-diversity filter (§4.3) keys on this.
func (p *Platform) ProbeASN(id int) (ipmap.ASN, bool) {
	if id < 1 || id > len(p.probes) {
		return 0, false
	}
	return p.probes[id-1].ASN, true
}

// AddBuiltin registers a builtin measurement: every probe traceroutes the
// target every 30 minutes (cf. the root-server measurements of §2).
func (p *Platform) AddBuiltin(target netip.Addr) Measurement {
	ids := make([]int, len(p.probes))
	for i := range p.probes {
		ids[i] = i + 1
	}
	return p.addMeasurement(Builtin, target, BuiltinInterval, ids)
}

// AddAnchoring registers an anchoring measurement from the given probes
// every 15 minutes.
func (p *Platform) AddAnchoring(target netip.Addr, probeIDs []int) Measurement {
	return p.addMeasurement(Anchoring, target, AnchoringInterval, probeIDs)
}

// AddCustom registers a measurement with an arbitrary cadence.
func (p *Platform) AddCustom(target netip.Addr, interval time.Duration, probeIDs []int) Measurement {
	return p.addMeasurement(Builtin, target, interval, probeIDs)
}

func (p *Platform) addMeasurement(kind Kind, target netip.Addr, interval time.Duration, probeIDs []int) Measurement {
	m := Measurement{
		ID:       p.nextID,
		Kind:     kind,
		Target:   target,
		Interval: interval,
		Probes:   append([]int(nil), probeIDs...),
	}
	p.nextID++
	p.msms = append(p.msms, m)
	return m
}

// Measurements returns the registered measurements.
func (p *Platform) Measurements() []Measurement { return p.msms }

// hash mixes identifiers into a stable 64-bit value for seeding per-task
// PRNGs and offsets.
func (p *Platform) hash(vals ...uint64) uint64 {
	return hash.Fold(p.seed, vals...)
}

// --- Incremental schedule ------------------------------------------------

// genTask is one (measurement, probe) firing.
type genTask struct {
	at    time.Time
	msm   int32 // index into p.msms
	probe int32 // probe ID
}

// cursor is one (measurement, probe) stream's next firing. Firing times lie
// on the absolute grid {k·interval + offset}, so cursors are independent of
// where the run window starts.
type cursor struct {
	at       time.Time
	interval time.Duration
	msm      int32
	probe    int32
}

// cursorLess orders cursors by (firing time, measurement index, probe ID) —
// exactly the chronological order the platform emits results in.
func cursorLess(a, b cursor) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	if a.msm != b.msm {
		return a.msm < b.msm
	}
	return a.probe < b.probe
}

// scheduler is an incremental min-heap over per-(measurement, probe) firing
// cursors. Unlike the old materialize-and-sort generator it needs
// O(streams) memory for arbitrarily long campaigns and emits the next task
// in O(log streams), with no per-chunk re-sorting.
type scheduler struct {
	to time.Time
	h  []cursor // min-heap ordered by cursorLess
}

// newScheduler builds the heap. Probe IDs are validated here rather than at
// measurement registration so callers may register measurements before
// attaching the probes they reference; by run time every ID must resolve.
func (p *Platform) newScheduler(from, to time.Time) (*scheduler, error) {
	s := &scheduler{to: to}
	for mi, m := range p.msms {
		for _, prb := range m.Probes {
			if prb < 1 || prb > len(p.probes) {
				return nil, fmt.Errorf("atlas: measurement %d references unknown probe %d", m.ID, prb)
			}
			off := time.Duration(p.hash(uint64(m.ID), uint64(prb), 0xa11a5) % uint64(m.Interval))
			// First firing at or after from.
			start := from.Truncate(m.Interval).Add(off)
			for start.Before(from) {
				start = start.Add(m.Interval)
			}
			if !start.Before(to) {
				continue
			}
			s.h = append(s.h, cursor{at: start, interval: m.Interval, msm: int32(mi), probe: int32(prb)})
		}
	}
	for i := len(s.h)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
	return s, nil
}

func (s *scheduler) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(s.h) {
			return
		}
		least := l
		if r := l + 1; r < len(s.h) && cursorLess(s.h[r], s.h[l]) {
			least = r
		}
		if !cursorLess(s.h[least], s.h[i]) {
			return
		}
		s.h[i], s.h[least] = s.h[least], s.h[i]
		i = least
	}
}

// next pops the chronologically next firing, advancing its stream cursor.
// ok is false when the schedule is exhausted.
func (s *scheduler) next() (genTask, bool) {
	if len(s.h) == 0 {
		return genTask{}, false
	}
	c := s.h[0]
	if nxt := c.at.Add(c.interval); nxt.Before(s.to) {
		s.h[0].at = nxt
	} else {
		last := len(s.h) - 1
		s.h[0] = s.h[last]
		s.h = s.h[:last]
	}
	s.down(0)
	return genTask{at: c.at, msm: c.msm, probe: c.probe}, true
}

// exec runs one task. The per-task reseed leaves the PCG in exactly the
// state rand.NewPCG(h1, h2) constructs, so every task's noise stream is a
// pure function of (seed, measurement, probe, firing time) — the property
// that makes tasks freely distributable across workers.
func (p *Platform) exec(sc *netsim.TracerouteScratch, pcg *rand.PCG, rng *rand.Rand, t genTask) (trace.Result, error) {
	m := &p.msms[t.msm]
	pr := &p.probes[t.probe-1]
	pcg.Seed(
		p.hash(uint64(m.ID), uint64(t.probe), uint64(t.at.UnixNano())),
		p.hash(uint64(t.at.UnixNano()), uint64(m.ID)),
	)
	parisID := int(p.hash(uint64(m.ID), uint64(t.probe)) % 16)
	res, err := p.net.TracerouteWith(sc, pr.Router, m.Target, t.at, parisID, rng, p.opts)
	if err != nil {
		return trace.Result{}, fmt.Errorf("atlas: msm %d probe %d: %w", m.ID, pr.ID, err)
	}
	res.MsmID = m.ID
	res.PrbID = pr.ID
	return res, nil
}

// --- Running -------------------------------------------------------------

// genChunkSize is how many tasks Run groups per pipeline item. Chunk
// boundaries never affect results (tasks are independently seeded), only
// amortization.
const genChunkSize = 64

// DefaultBatchSize is the chunk size RunChunks uses when the caller passes 0.
const DefaultBatchSize = 256

// Run executes all scheduled measurements in [from, to) in chronological
// order, invoking fn for each result. Returning a non-nil error from fn
// aborts the run. Results are bit-identical for equal platform seeds,
// regardless of SetWorkers.
func (p *Platform) Run(from, to time.Time, fn func(trace.Result) error) error {
	return p.run(context.Background(), from, to, genChunkSize, true, func(rs []trace.Result) error {
		for _, r := range rs {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// RunChunks executes the campaign like Run but delivers results in
// chronological chunks of up to chunkSize (0 = DefaultBatchSize; the final
// chunk may be short). Chunk boundaries depend only on chunkSize, so the
// grouping — like the results — is identical for every worker count. The
// chunks are freshly allocated; fn may retain them. A canceled ctx stops the
// run and is returned. This is the fused producer API:
// core.Analyzer.RunPlatform feeds these chunks straight into the engine on
// the goroutine that called it.
func (p *Platform) RunChunks(ctx context.Context, from, to time.Time, chunkSize int, fn func([]trace.Result) error) error {
	if chunkSize <= 0 {
		chunkSize = DefaultBatchSize
	}
	return p.run(ctx, from, to, chunkSize, false, fn)
}

// resultChunk is one task chunk executed: on a task error, results holds
// the tasks before the failing one.
type resultChunk struct {
	results []trace.Result
	err     error
}

// taskBufPool recycles task chunks once a worker has executed them.
var taskBufPool = sync.Pool{New: func() any { return new([]genTask) }}

// run is the one generator loop, a pipeline.Ordered call: the producer (the
// only goroutine touching the schedule heap) cuts the chronological task
// stream into chunks of chunkSize, each worker executes chunks with its own
// PRNG and traceroute scratch, and emit receives the executed chunks in
// schedule order on the caller's goroutine — so emission order, chunk
// grouping and every byte of every result are the same for every worker
// count. emitPartial decides what a task error leaves behind: Run sees the
// failing chunk's results up to the failing task (as if it had executed the
// tasks one by one), RunChunks has that partially filled chunk withheld.
func (p *Platform) run(ctx context.Context, from, to time.Time, chunkSize int, emitPartial bool, emit func([]trace.Result) error) error {
	sched, err := p.newScheduler(from, to)
	if err != nil {
		return err
	}
	return pipeline.Ordered(ctx, p.workers,
		func(next func(*[]genTask) bool) {
			for {
				buf := taskBufPool.Get().(*[]genTask)
				*buf = (*buf)[:0]
				for len(*buf) < chunkSize {
					t, ok := sched.next()
					if !ok {
						break
					}
					*buf = append(*buf, t)
				}
				if len(*buf) == 0 {
					taskBufPool.Put(buf)
					return
				}
				if !next(buf) {
					return
				}
			}
		},
		func() func(*[]genTask) resultChunk {
			// One PRNG reseeded per task, one scratch for every traceroute's
			// working memory: a worker allocates only the results it emits.
			pcg := rand.NewPCG(0, 0)
			rng := rand.New(pcg)
			var sc netsim.TracerouteScratch
			return func(tasks *[]genTask) resultChunk {
				c := resultChunk{results: make([]trace.Result, 0, len(*tasks))}
				for _, t := range *tasks {
					res, err := p.exec(&sc, pcg, rng, t)
					if err != nil {
						c.err = err
						break
					}
					c.results = append(c.results, res)
				}
				taskBufPool.Put(tasks)
				return c
			}
		},
		func(c resultChunk) error {
			if len(c.results) > 0 && (c.err == nil || emitPartial) {
				if err := emit(c.results); err != nil {
					return err
				}
			}
			return c.err
		})
}

// Collect runs the platform and gathers all results into a slice (intended
// for tests and small experiments; long campaigns should use Run or
// RunChunks).
func (p *Platform) Collect(from, to time.Time) ([]trace.Result, error) {
	var out []trace.Result
	err := p.Run(from, to, func(r trace.Result) error {
		out = append(out, r)
		return nil
	})
	return out, err
}
