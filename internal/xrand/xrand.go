// Package xrand provides a small, deterministic pseudo-random toolkit for
// the workload generators and simulators.
//
// The standard library's math/rand is seedable but its stream is not
// guaranteed stable across Go releases for every method. Experiments in this
// repository must be bit-reproducible (the paper's trace methodology depends
// on "deterministic and precise comparisons", §2.1), so we implement our own
// PCG-XSH-RR generator plus the samplers the generators need: uniform,
// bounded, Bernoulli, categorical (weighted choice), bounded Zipf and
// geometric.
package xrand

import "math"

// RNG is a PCG-XSH-RR 64/32 pseudo-random generator. The zero value is not
// valid; use New.
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// New returns an RNG seeded with seed on stream seq. Distinct seq values
// give independent streams even with equal seeds.
func New(seed, seq uint64) *RNG {
	r := &RNG{inc: seq<<1 | 1}
	r.state = 0
	r.Uint32()
	r.state += seed
	r.Uint32()
	return r
}

// Split returns a new independent RNG derived from r's current state. It is
// used to give each workload component its own stream.
func (r *RNG) Split() *RNG {
	return New(uint64(r.Uint32())<<32|uint64(r.Uint32()), uint64(r.Uint32()))
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's nearly-divisionless bounded sampling.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive bound")
	}
	bound := uint32(n)
	threshold := -bound % bound
	for {
		v := r.Uint32()
		prod := uint64(v) * uint64(bound)
		if uint32(prod) >= threshold {
			return int(prod >> 32)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Categorical samples from a fixed discrete distribution given by
// non-negative weights, in O(1) per sample after O(n) setup, using Vose's
// alias method.
type Categorical struct {
	prob  []float64
	alias []int
}

// NewCategorical builds an alias table for weights. At least one weight
// must be positive; negative weights panic.
func NewCategorical(weights []float64) *Categorical {
	n := len(weights)
	if n == 0 {
		panic("xrand: empty categorical")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: negative or NaN categorical weight")
		}
		total += w
	}
	if total <= 0 {
		panic("xrand: categorical weights sum to zero")
	}
	c := &Categorical{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	var small, large []int
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		c.prob[s] = scaled[s]
		c.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		c.prob[i] = 1
		c.alias[i] = i
	}
	for _, i := range small {
		c.prob[i] = 1
		c.alias[i] = i
	}
	return c
}

// Sample draws an index distributed according to the weights.
func (c *Categorical) Sample(r *RNG) int {
	i := r.Intn(len(c.prob))
	if r.Float64() < c.prob[i] {
		return i
	}
	return c.alias[i]
}

// Len returns the number of categories.
func (c *Categorical) Len() int { return len(c.prob) }

// Zipf samples integers in [0, n) with P(k) proportional to 1/(k+1)^s.
// It precomputes the CDF and samples by binary search, which is fast enough
// for the generator hot loop and exactly reproducible.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a bounded Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: Zipf with non-positive n")
	}
	if s <= 0 {
		panic("xrand: Zipf with non-positive exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // guard against FP round-off
	return &Zipf{cdf: cdf}
}

// Sample draws a Zipf-distributed index: 0 is the hottest.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Len returns the support size.
func (z *Zipf) Len() int { return len(z.cdf) }

// Geometric samples non-negative ints with a fixed mean m: P(k) =
// (1-p) p^k with p = m/(1+m), drawn by inverse-CDF sampling. Callers
// draw many times from one mean, so NewGeometric takes log(p) once
// instead of every draw paying for it.
type Geometric struct {
	logP  float64
	draws bool // false for a non-positive mean, which always samples 0
}

// NewGeometric builds a sampler with the given mean. A non-positive mean
// samples 0 without drawing from the RNG.
func NewGeometric(mean float64) Geometric {
	if mean <= 0 {
		return Geometric{}
	}
	return Geometric{logP: math.Log(mean / (1 + mean)), draws: true}
}

// Sample draws one value: k = floor(log(u) / log(p)).
func (g Geometric) Sample(r *RNG) int {
	if !g.draws {
		return 0
	}
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	k := int(math.Log(u) / g.logP)
	if k < 0 {
		k = 0
	}
	return k
}
