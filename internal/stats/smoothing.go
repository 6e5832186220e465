package stats

// EWMA is an exponentially weighted moving average:
//
//	m̄_t = α·m_t + (1−α)·m̄_{t−1}
//
// (Eq 7 of the paper). A small α makes the reference sluggish, which is what
// the detectors want: anomalous bins barely move the reference, so a
// sustained event keeps deviating from it.
//
// The paper seeds the reference with the median of the first three
// observations (§4.2.4); Warmup controls that behaviour. The zero value is
// unusable — construct with MakeEWMA.
type EWMA struct {
	Alpha float64

	warmup   []float64
	warmupN  int
	value    float64
	primed   bool
	haveInit bool
}

// MakeEWMA returns an EWMA with the given smoothing factor α ∈ (0, 1) and
// warm-up length. With warmup == n > 0 the first n observations are buffered
// and their median becomes the initial reference value m̄₀; subsequent
// observations update it exponentially. With warmup ≤ 1 the first
// observation becomes m̄₀ directly. It returns a value, for embedding in
// columnar detector state (flat arrays of per-link references) without a
// pointer indirection per smoothed component.
func MakeEWMA(alpha float64, warmup int) EWMA {
	if warmup < 1 {
		warmup = 1
	}
	return EWMA{Alpha: alpha, warmupN: warmup}
}

// Observe feeds one measurement and returns the updated reference value.
// During warm-up the returned value is the running median of the
// observations so far.
func (e *EWMA) Observe(x float64) float64 {
	if !e.primed {
		e.warmup = append(e.warmup, x)
		e.value = Median(e.warmup)
		e.haveInit = true
		if len(e.warmup) >= e.warmupN {
			e.primed = true
			e.warmup = nil
		}
		return e.value
	}
	e.value = e.Alpha*x + (1-e.Alpha)*e.value
	return e.value
}

// Value returns the current reference value. Ready reports whether at least
// one observation has been made.
func (e *EWMA) Value() float64 { return e.value }

// Ready reports whether the EWMA has seen at least one observation.
func (e *EWMA) Ready() bool { return e.haveInit }

// Primed reports whether the warm-up phase has completed and the reference
// is now updated exponentially.
func (e *EWMA) Primed() bool { return e.primed }

// SmoothInto updates ref ← α·cur + (1−α)·ref element-wise over two vectors of
// equal length. It is the vector form of Eq 8 used by the forwarding model.
func SmoothInto(ref, cur []float64, alpha float64) {
	for i := range ref {
		ref[i] = alpha*cur[i] + (1-alpha)*ref[i]
	}
}
