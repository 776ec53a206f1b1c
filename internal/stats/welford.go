package stats

import "math"

// Welford is a streaming mean/variance accumulator (Welford's online
// algorithm). It holds three words of state no matter how many samples
// it has seen, so the server's per-series confidence intervals and
// pearlbench's per-point seed aggregates can fold results in one at a
// time without keeping the samples around. The zero value is an empty
// accumulator.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds one sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += float64(delta * (x - w.mean))
}

// N returns how many samples have been folded in.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample (Bessel-corrected) variance; 0 when
// fewer than two samples have been seen.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	v := w.m2 / float64(w.n-1)
	if v < 0 {
		// Cancellation can leave a tiny negative residue on constant
		// series; variance is non-negative by definition.
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean, StdDev/sqrt(n); 0
// when fewer than two samples have been seen.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of the normal-approximation 95%
// confidence interval of the mean (1.96 standard errors). For the
// small seed counts replicated runs use this understates the
// t-distribution width slightly; it is reported as a dispersion
// indicator, not a hypothesis test.
func (w *Welford) CI95() float64 { return 1.96 * w.StdErr() }
