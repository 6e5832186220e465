package netsim

import (
	"math"
	"math/rand/v2"
)

// DelayModel describes the per-packet one-way delay of a link direction, in
// milliseconds. Sampled delay = Base + |N(0, Jitter)| + spike + outlier.
// The half-normal jitter models queuing variation; spikes (probability
// SpikeProb, exponential mean SpikeMS) model transient queue buildup; and
// outliers (probability OutlierProb, exponential mean OutlierMS) model the
// rare, huge measurement errors the paper attributes its >µ+3σ values to
// (125 in two weeks of one link's samples, §4.2.2) — events the
// median-based detector must shrug off but the mean cannot.
type DelayModel struct {
	BaseMS      float64
	JitterMS    float64
	SpikeProb   float64
	SpikeMS     float64 // mean of the exponential spike
	OutlierProb float64
	OutlierMS   float64 // mean of the exponential measurement-error outlier
}

// Sample draws one delay observation with extraMS added to the base (used
// for scenario-injected congestion).
func (d *DelayModel) Sample(rng *rand.Rand, extraMS float64) float64 {
	v := d.BaseMS + extraMS
	if d.JitterMS > 0 {
		v += math.Abs(rng.NormFloat64()) * d.JitterMS
	}
	if d.SpikeProb > 0 && rng.Float64() < d.SpikeProb {
		v += rng.ExpFloat64() * d.SpikeMS
	}
	if d.OutlierProb > 0 && rng.Float64() < d.OutlierProb {
		v += rng.ExpFloat64() * d.OutlierMS
	}
	return v
}

// Default per-link noise parameters used by builders unless overridden.
const (
	defaultSpikeProb = 0.01
	defaultSpikeMS   = 20.0
)
