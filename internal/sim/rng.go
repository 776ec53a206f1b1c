// Package sim provides the cycle-driven simulation kernel used by every
// network model in this repository: a deterministic pseudo-random number
// generator, a simulation clock, a calendar event queue and an engine that
// advances registered components one network cycle at a time.
//
// All experiments in the paper reproduction are deterministic: every source
// of randomness flows from a single seed through SplitMix64-seeded
// xoshiro256** streams, so a given (seed, configuration) pair always yields
// bit-identical results.
package sim

import "math"

// RNG is a deterministic pseudo-random number generator implementing
// xoshiro256** seeded via SplitMix64. It is NOT safe for concurrent use;
// each component that needs randomness should own its own stream (see
// Fork).
type RNG struct {
	// The four xoshiro256** state words are named fields rather than an
	// array: field accesses cost less in the compiler's inlining model,
	// and keeping Uint64 inlinable matters — it is the innermost call of
	// every random draw in the simulator.
	s0, s1, s2, s3 uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding so that nearby seeds produce uncorrelated
// xoshiro states.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 is the SplitMix64 finalizer: a cheap bijective avalanche over
// 64 bits. Seed-derivation schemes (replica seed fans, stream
// splitting) fold their inputs with a weak hash and pass the result
// through Mix64 so nearby inputs land on uncorrelated seeds.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRNG returns a generator deterministically derived from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	// xoshiro must not start from the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Uint64 returns the next 64 uniformly distributed bits. The state runs
// through locals and the rotates are written out with constant shifts so
// the whole function stays within the compiler's inlining budget — this
// is the innermost call of every random draw in the simulator.
func (r *RNG) Uint64() uint64 {
	s1 := r.s1
	x := s1 * 5
	s2 := r.s2 ^ r.s0
	s3 := r.s3 ^ s1
	r.s1 = s1 ^ s2
	r.s0 ^= s3
	r.s2 = s2 ^ s1<<17
	r.s3 = s3<<45 | s3>>19
	return (x<<7 | x>>57) * 9
}

// Fork derives an independent child stream from this generator. Forked
// streams are decorrelated from the parent and from each other because the
// child seed passes through SplitMix64 again.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// A plain modulo of the top 31 bits: it is biased, but for the
	// NoC-scale n used here (tens of routers) the bias is below 2^-31.
	return int((r.Uint64() >> 33) % uint64(n)) //nolint:gosec // bias < 2^-31 for NoC-scale n
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// BernoulliThreshold is Bernoulli(p) as an integer compare on one 53-bit
// draw m = Uint64()>>11, for hot loops that run the same test every
// cycle. When draws is true, Bernoulli(p) consumes one Uint64 and reports
// m < t; when draws is false it consumes nothing and reports t != 0.
// Float64() < p is m/2^53 < p; p·2^53 is exact (a power-of-two scale) and
// m is an integer, so that is m < ⌈p·2^53⌉.
func BernoulliThreshold(p float64) (t uint64, draws bool) {
	switch {
	case p <= 0:
		return 0, false
	case p >= 1:
		return 1 << 53, false
	case p != p: // NaN: Float64() < NaN never holds
		return 0, true
	}
	return uint64(math.Ceil(p * (1 << 53))), true
}

// PoissonZeroThreshold is the k = 0 test of PoissonExp's first step as an
// integer compare: Float64() <= expNegMean holds exactly when the same
// draw's m = Uint64()>>11 is below the returned t. m/2^53 <= l is
// m <= ⌊l·2^53⌋, i.e. m < ⌊l·2^53⌋+1; l >= 1 admits every m, and a
// negative or NaN l admits none.
func PoissonZeroThreshold(expNegMean float64) uint64 {
	switch {
	case expNegMean >= 1:
		return 1 << 53
	case expNegMean < 0, expNegMean != expNegMean:
		return 0
	}
	return uint64(math.Floor(expNegMean*(1<<53))) + 1
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// method for small means and a normal approximation for large ones. Means
// in this codebase are per-cycle injection counts, i.e. well under 10.
func (r *RNG) Poisson(mean float64) int {
	return r.PoissonExp(mean, math.Exp(-mean))
}

// PoissonExp is Poisson with exp(-mean) supplied by the caller, for hot
// paths that sample the same mean every cycle and can hoist the
// exponential. It consumes exactly the same random draws as Poisson, so
// swapping between the two never perturbs the stream.
func (r *RNG) PoissonExp(mean, expNegMean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation with continuity correction.
		n := int(math.Round(r.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			return 0
		}
		return n
	}
	u := r.Float64()
	if u <= expNegMean {
		return 0
	}
	return r.PoissonTail(u, expNegMean)
}

// PoissonTail finishes Knuth's method after a first uniform u that failed
// the k = 0 test (u > expNegMean): it returns the same k >= 1 as
// PoissonExp and consumes the same draws. A caller that ran the k = 0
// test itself (see PoissonZeroThreshold) resumes here.
func (r *RNG) PoissonTail(u, expNegMean float64) int {
	k := 1
	p := u
	for {
		p *= r.Float64()
		if p <= expNegMean {
			return k
		}
		k++
	}
}

// Normal returns a normally distributed value via the Box-Muller transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + float64(stddev*z)
}
