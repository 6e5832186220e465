package experiments

import (
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/delay"
	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

// Empirical companion to Appendix B: inject events of varying duration and
// check whether the detector catches them, for the two measurement
// cadences. Eq 11 predicts the builtin cadence (r=2/h, 1-hour bins) misses
// anything much shorter than T/2 + 1/(3rn) ≈ 30 minutes, while anchoring
// (r=4/h) analyzed at its minimum usable bin (15 minutes) detects events
// down to ≈ 9 minutes.

// sweepPoint is one (cadence, bin, duration) detection trial.
type sweepPoint struct {
	Cadence  string
	Interval time.Duration
	Bin      time.Duration
	Duration time.Duration
	Detected bool
}

// runDetectionSweep injects a +15 ms congestion of the given duration,
// aligned to a bin boundary, and reports whether any alarm lands in an
// event bin.
func runDetectionSweep(nProbes int, interval, bin, duration time.Duration) (bool, error) {
	start := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	evStart := start.Add(30 * time.Hour) // enough history for the reference
	evEnd := evStart.Add(duration)
	f, err := buildCogentLink(uint64(997+duration/time.Minute), nProbes, 0, evStart, evEnd, 15)
	if err != nil {
		return false, err
	}
	// Rewire the measurement cadence: replace the default builtin (30 min)
	// with the requested interval.
	platform := f.Platform
	if interval != 30*time.Minute {
		platform = newCogentPlatformWithInterval(f, interval)
	}

	det := delay.NewDetector(delay.Config{BinSize: bin, Seed: 1}, platform.ProbeASN)
	// One bin of lead: an alarm counts when its bin ends at or after the
	// event's start and opens before its end.
	lead := [2]time.Time{evStart.Add(-bin), evEnd}
	detected := false
	check := func(als []delay.Alarm) {
		for _, al := range als {
			detected = detected || inWindow(lead, al.Bin)
		}
	}
	err = platform.Run(start, evEnd.Add(4*time.Hour), func(r trace.Result) error {
		check(det.Observe(r))
		return nil
	})
	if err != nil {
		return false, err
	}
	check(det.Flush())
	return detected, nil
}

// newCogentPlatformWithInterval rebuilds the fixture's platform with a
// custom measurement interval (the anchoring cadence for the sweep).
func newCogentPlatformWithInterval(f *cogentLink, interval time.Duration) *atlas.Platform {
	p := atlas.NewPlatform(f.Net, 174, netsim.TracerouteOpts{})
	var ids []int
	for _, pr := range f.Platform.Probes() {
		np := p.AddProbe(pr.Router, pr.Anchor)
		ids = append(ids, np.ID)
	}
	p.AddCustom(f.Target, interval, ids)
	return p
}

// detectionSweep runs the full duration × cadence grid.
func detectionSweep(scale Scale) ([]sweepPoint, error) {
	nProbes := 20
	durations := []time.Duration{10 * time.Minute, 15 * time.Minute, 33 * time.Minute, 45 * time.Minute}
	if scale == Quick {
		durations = []time.Duration{15 * time.Minute, 45 * time.Minute}
	}
	grid := []struct {
		name     string
		interval time.Duration
		bin      time.Duration
	}{
		{"builtin", 30 * time.Minute, time.Hour},
		{"anchoring", 15 * time.Minute, 15 * time.Minute},
	}
	var out []sweepPoint
	for _, g := range grid {
		for _, d := range durations {
			ok, err := runDetectionSweep(nProbes, g.interval, g.bin, d)
			if err != nil {
				return nil, err
			}
			out = append(out, sweepPoint{
				Cadence: g.name, Interval: g.interval, Bin: g.bin,
				Duration: d, Detected: ok,
			})
		}
	}
	return out, nil
}
