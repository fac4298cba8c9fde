package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random number generator based
// on splitmix64. Simulations must be reproducible across runs and across
// machines, so all stochastic components draw from an explicitly seeded RNG
// rather than from math/rand's global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child generator. The child stream is
// decorrelated from the parent by mixing the parent's next output.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
//
// The reduction uses Lemire's multiply-shift method with rejection: a
// plain modulo maps 2^64 inputs onto n buckets unevenly whenever n does
// not divide 2^64, biasing small buckets by up to n/2^64. The widening
// multiply picks the bucket, and the rare draws that land in the uneven
// remainder zone (fewer than n of 2^64 values) are redrawn.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un // (2^64 - n) mod n: first unbiased low word
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("sim: Exp with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// StdNormal returns a standard normal value, using the Box-Muller
// transform.
func (r *RNG) StdNormal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LognormalParams converts a (mean, CV) pair into the (mu, sigma) of the
// underlying normal, so math.Exp(mu+sigma*z) for a standard normal z is
// a lognormal draw with that mean and CV. A zero CV degenerates to a
// deterministic value. It panics if the mean is non-positive; the
// platforms' Config.Validate rules that out for every caller.
func LognormalParams(mean, cv float64) (mu, sigma float64) {
	if mean <= 0 {
		panic(fmt.Sprintf("sim: non-positive lognormal mean %v", mean))
	}
	if cv <= 0 {
		return math.Log(mean), 0
	}
	s2 := math.Log(1 + cv*cv)
	return math.Log(mean) - s2/2, math.Sqrt(s2)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.StdNormal()
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
