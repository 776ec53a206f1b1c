package sim

import (
	"math"
	"testing"
)

// thresholdEdges are the probabilities and exponentials where an integer
// threshold is most likely to be off by one: no-draw ends, the smallest
// and largest draws, values whose ·2^53 is an integer (every float in
// [0.5, 1) is), NaN and out-of-range inputs.
var thresholdEdges = []float64{
	0, math.Copysign(0, -1), 1, 0x1p-53, 1 - 0x1p-53, 0x1p-1074, 0x1p-54,
	0.5, math.Nextafter(0.5, 0), 0.25, 0.002, 0.998, 2, -1,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// thresholdRates are Poisson means: zero, tiny, rates at or below ln 2
// (exp(-rate) >= 0.5, so exp·2^53 is an integer), the generators' quiet
// and burst rates, and PoissonExp's Knuth limit of 30.
var thresholdRates = []float64{0, 1e-300, 0x1p-60, 0.001, 0.002, 0.0058, math.Ln2, 0.7, 0.425, 1, 5, 30}

// drawsNear returns the 53-bit draws at and around t that fit in
// [0, 2^53), plus the raw draw m.
func drawsNear(t, m uint64) []uint64 {
	out := []uint64{m, 0, 1<<53 - 1}
	for _, d := range []uint64{t - 1, t, t + 1} {
		if d < 1<<53 {
			out = append(out, d)
		}
	}
	return out
}

// FuzzQuietThresholds checks the integer forms of the traffic generator's
// two per-cycle tests against the float tests they replace, over the
// probability p, the Poisson mean rate and a raw Uint64 draw: first on
// single draws (the raw one and those either side of the threshold),
// then through twin RNG streams seeded by raw, which must also consume
// the same draws.
func FuzzQuietThresholds(f *testing.F) {
	for i, p := range thresholdEdges {
		for j, rate := range thresholdRates {
			f.Add(p, rate, uint64(i*len(thresholdRates)+j)*0x9e3779b97f4a7c15)
		}
	}
	f.Add(0.002, 0.002, uint64(0))
	f.Add(0.5, math.Ln2, ^uint64(0))
	f.Fuzz(func(t *testing.T, p, rate float64, raw uint64) {
		checkBernoulli(t, p, raw)
		checkPoissonZero(t, rate, raw) // rate itself as an arbitrary exponential
		if rate > 0 && rate <= 30 {
			l := math.Exp(-rate)
			checkPoissonZero(t, l, raw)
			checkPoissonStream(t, rate, l, raw)
		}
	})
}

func checkBernoulli(t *testing.T, p float64, raw uint64) {
	th, draws := BernoulliThreshold(p)
	if !draws {
		if want := p >= 1; (th != 0) != want {
			t.Fatalf("BernoulliThreshold(%v) = %d without a draw, want result %v", p, th, want)
		}
	} else {
		for _, m := range drawsNear(th, raw>>11) {
			u := float64(m) / (1 << 53) // Float64's value for this draw
			if (u < p) != (m < th) {
				t.Fatalf("p=%v m=%d: Float64() < p is %v, m < %d is %v", p, m, u < p, th, m < th)
			}
		}
	}
	a, b := NewRNG(raw), NewRNG(raw)
	got := a.Bernoulli(p)
	want := th != 0
	if draws {
		want = b.Uint64()>>11 < th
	}
	if got != want || *a != *b {
		t.Fatalf("p=%v seed=%d: Bernoulli = %v, threshold form = %v, streams equal = %v", p, raw, got, want, *a == *b)
	}
}

func checkPoissonZero(t *testing.T, l float64, raw uint64) {
	z := PoissonZeroThreshold(l)
	if z > 1<<53 {
		t.Fatalf("PoissonZeroThreshold(%v) = %d > 2^53", l, z)
	}
	for _, m := range drawsNear(z, raw>>11) {
		u := float64(m) / (1 << 53)
		if (u <= l) != (m < z) {
			t.Fatalf("l=%v m=%d: Float64() <= l is %v, m < %d is %v", l, m, u <= l, z, m < z)
		}
	}
}

// checkPoissonStream runs PoissonExp against its split form (the k = 0
// test on the threshold, then PoissonTail) on twin streams.
func checkPoissonStream(t *testing.T, rate, l float64, raw uint64) {
	a, b := NewRNG(raw), NewRNG(raw)
	for i := 0; i < 8; i++ {
		want := a.PoissonExp(rate, l)
		got := 0
		if m := b.Uint64() >> 11; m >= PoissonZeroThreshold(l) {
			got = b.PoissonTail(float64(m)/(1<<53), l)
		}
		if got != want || *a != *b {
			t.Fatalf("rate=%v seed=%d draw %d: PoissonExp = %d, split form = %d, streams equal = %v", rate, raw, i, want, got, *a == *b)
		}
	}
}
