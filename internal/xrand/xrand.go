// Package xrand provides deterministic, seedable pseudo-random number
// generation used throughout the repository. Every experiment in the paper
// reproduction must be replayable bit-for-bit, so all randomness flows
// through this package rather than math/rand's global state.
//
// The core generator is xoshiro256**, seeded via splitmix64 as recommended
// by its authors. The package also provides the derived distributions the
// benchmarks need: uniform floats, Gaussians (for synthetic dataset
// generation) and a bounded Zipf sampler (for skewed cluster access
// frequencies, Fig. 4 of the paper).
package xrand

import "math"

// RNG is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with New.
type RNG struct {
	s [4]uint64
	// cached spare Gaussian from the Box-Muller pair.
	spare    float64
	hasSpare bool
}

// splitmix64 advances the seed and returns the next splitmix64 output.
// It is used only to expand a single user seed into the xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
	// Guard against the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
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

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits to avoid modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v <= max {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using
// the Box-Muller transform with caching of the second variate.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// Zipf samples from a bounded Zipf distribution over {0, ..., n-1} with
// exponent s > 0 (larger s = more skew). Sampling is done by inverse CDF
// over precomputed cumulative weights, O(log n) per draw.
type Zipf struct {
	cum []float64 // cumulative normalized weights, cum[n-1] == 1
}

// NewZipf builds a Zipf sampler over n ranks with exponent s.
// Rank 0 is the most popular. It panics if n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with n <= 0")
	}
	if s < 0 {
		panic("xrand: NewZipf with s < 0")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	inv := 1 / total
	for i := range cum {
		cum[i] *= inv
	}
	cum[n-1] = 1 // guard against rounding
	return &Zipf{cum: cum}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cum) }

// Sample draws one rank in [0, N).
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	// Binary search for the first cum[i] >= u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability mass of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i == 0 {
		return z.cum[0]
	}
	return z.cum[i] - z.cum[i-1]
}
