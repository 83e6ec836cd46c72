// Package xrand provides the deterministic pseudo-random machinery used by
// the sampling algorithms and the synthetic traffic generators.
//
// All experiments in this repository are reproducible: every consumer takes
// an explicit *Rand seeded by the caller. The generator is xoshiro256**,
// seeded through splitmix64, matching the stream quality the paper's
// algorithms assume from a "random()" primitive while avoiding any global
// state.
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; create one per goroutine.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, so that nearby
// seeds yield uncorrelated streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// State returns the generator's full internal state, for checkpointing.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState restores a state previously obtained from State. A generator
// restored this way produces exactly the stream the original would have
// produced from that point on.
func (r *Rand) SetState(s [4]uint64) { r.s = s }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// The rejection threshold -n % n is below n, so a low word of at least
	// n is accepted without computing it: the division runs only on the
	// rare draws that might be rejected, and every draw is accepted or
	// rejected exactly as against the threshold itself.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1), via inverse transform.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal variate via the polar Box-Muller
// method (no cached second value, to keep Rand's state minimal).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Pareto returns a Pareto(alpha, xmin) variate: heavy-tailed sizes such as
// flow lengths. alpha must be > 0.
func (r *Rand) Pareto(alpha, xmin float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xmin / math.Pow(u, 1/alpha)
		}
	}
}
