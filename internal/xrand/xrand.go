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

import (
	"math"

	"destset/internal/freelist"
)

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

// Perm fills p with a pseudo-random permutation of [0, len(p)). Its
// contents before the call do not matter.
func (r *RNG) Perm(p []int) {
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
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
// for the generator hot loop and exactly reproducible. A guide table
// narrows the search: a draw u in [j, j+1)/guideN samples an index from
// guide[j] to guide[j+1], the first indexes whose CDF reaches j/guideN
// and (j+1)/guideN, so it finds the same first index with cdf >= u as a
// search of the whole CDF.
type Zipf struct {
	t *zipfTable
}

// guideBits is how many leading bits of a 53-bit draw index the guide
// table.
const (
	guideBits = 12
	guideN    = 1 << guideBits
)

// zipfTable is the sampling table of one (n, s): the CDF and its guide.
type zipfTable struct {
	cdf   []float64
	guide [guideN + 1]int32
}

type zipfKey struct {
	n int
	s float64
}

// zipfTables shares one table per (n, s) among the samplers that use it
// at once: NewZipf takes a table off the list and puts it straight back,
// so the list holds each table only as long as some sampler does.
var zipfTables freelist.List[zipfKey, zipfTable]

// NewZipf builds a bounded Zipf sampler over [0, n) with exponent s > 0.
// Samplers of one (n, s) share their table.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: Zipf with non-positive n")
	}
	if !(s > 0) {
		panic("xrand: Zipf with non-positive exponent")
	}
	k := zipfKey{n, s}
	t := zipfTables.Take(k)
	if t == nil {
		t = newZipfTable(n, s)
	}
	zipfTables.Put(k, t)
	return &Zipf{t: t}
}

func newZipfTable(n int, s float64) *zipfTable {
	t := &zipfTable{cdf: make([]float64, n)}
	cdf := t.cdf
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
	// Every u < 1 has cdf[n-1] >= u, so the walk stops inside the CDF.
	i := 0
	for j := range guideN {
		for cdf[i] < float64(j)/guideN {
			i++
		}
		t.guide[j] = int32(i)
	}
	t.guide[guideN] = int32(n - 1)
	return t
}

// Sample draws a Zipf-distributed index: 0 is the hottest.
func (z *Zipf) Sample(r *RNG) int { return z.sample(r.Uint64() >> 11) }

// sample maps a 53-bit draw x, the one Float64 makes u = x/2^53 from, to
// the first index whose CDF reaches u.
func (z *Zipf) sample(x uint64) int {
	u := float64(x) / (1 << 53)
	j := x >> (53 - guideBits)
	lo, hi := int(z.t.guide[j]), int(z.t.guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.t.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Len returns the support size.
func (z *Zipf) Len() int { return len(z.t.cdf) }

// Geometric samples non-negative ints with a fixed mean m: P(k) =
// (1-p) p^k with p = m/(1+m), drawn by inverse-CDF sampling:
// k = floor(log(u) / log(p)). Callers draw many times from one mean, so
// NewGeometric takes log(p) once. A draw takes log(u) from a table and a
// polynomial (logApprox) instead of the math library, and falls back to
// the library only when the quotient lies too near an integer for the
// two to be sure to floor alike (sample): every draw equals
// int(math.Log(u) / log(p)).
type Geometric struct {
	logP    float64
	invLogP float64 // 1 / logP
	tol     float64 // 2^-46 / -logP; see sample
	draws   bool    // false for a non-positive mean, which always samples 0
}

// NewGeometric builds a sampler with the given mean. A non-positive mean
// samples 0 without drawing from the RNG.
func NewGeometric(mean float64) Geometric {
	if mean <= 0 {
		return Geometric{}
	}
	logP := math.Log(mean / (1 + mean))
	return Geometric{logP: logP, invLogP: 1 / logP, tol: 0x1p-46 / -logP, draws: true}
}

// Sample draws one value: k = floor(log(u) / log(p)).
func (g Geometric) Sample(r *RNG) int {
	if !g.draws {
		return 0
	}
	return g.sample(r.Uint64() >> 11)
}

// sample is the draw for a 53-bit x, the one Float64 makes u = x/2^53
// from. With u = 2^e·m, 1 <= m < 2, e in [-53, -1], logApprox is within
// 2^-51·(1-e) of log(u) and the library's log within one ulp, below
// 2^-52·(1-e); the product here and the library's quotient round off a
// relative 2^-52 of |log(u)|/-logP <= (1-e)/-logP. The two quotients
// thus differ by less than 2^-50·(1-e)/-logP, and the guard band
// (1-e)·tol is sixteen times that.
func (g Geometric) sample(x uint64) int {
	if x != 0 {
		l, e := logApprox(x)
		q := l * g.invLogP
		k := int(q)
		if f, tol := q-float64(k), float64(1-e)*g.tol; f > tol && f < 1-tol {
			return k
		}
	}
	return g.exact(x)
}

// logSmallest is the log of the smallest positive float64, 2^-1074: the
// log the draw u = 0 takes. It is a constant because the math library's
// log of that subnormal differs by platform: amd64's assembly gives
// -709.09, the pure-Go log -744.44.
const logSmallest = -1074 * math.Ln2

// Max returns the largest value Sample can draw, the one at u = 0, as a
// float64, so that a value past every integer type still shows. It is
// about 744 times the mean.
func (g Geometric) Max() float64 {
	if !g.draws {
		return 0
	}
	return logSmallest / g.logP
}

// exact is the reference draw for x: the math library's log and the
// quotient as written, u = 0 taking logSmallest.
func (g Geometric) exact(x uint64) int {
	l := logSmallest
	if x != 0 {
		l = math.Log(float64(x) / (1 << 53))
	}
	k := int(l / g.logP)
	if k < 0 {
		k = 0
	}
	return k
}

// logBits is how many leading mantissa bits index logTable; logShift is
// how many follow them.
const (
	logBits  = 8
	logShift = 52 - logBits
)

// logTable holds log(c) and 1/c for the midpoint c = 1 + (i+½)/2^logBits
// of each mantissa interval i.
var logTable = func() (t [1 << logBits]struct{ log, inv float64 }) {
	for i := range t {
		c := 1 + (float64(i)+0.5)/(1<<logBits)
		t[i].log, t[i].inv = math.Log(c), 1/c
	}
	return t
}()

// logApprox returns log(x/2^53) for 0 < x < 2^53, and the binary
// exponent e of x/2^53 = 2^e·m (1 <= m < 2). With c the midpoint of m's
// interval, log(m) = log(c) + log1p(t) for t = (m-c)/c, |t| <= 2^-9,
// where m-c is exact and five terms of log1p's series leave an error
// below 2^-56.
func logApprox(x uint64) (float64, int) {
	b := math.Float64bits(float64(x))
	e := int(b>>52) - 1023 - 53
	c := &logTable[b>>logShift%(1<<logBits)]
	d := float64(int64(b%(1<<logShift))-1<<(logShift-1)) * 0x1p-52 // m - c
	t := d * c.inv
	p := t * (1 + t*(-1.0/2+t*(1.0/3+t*(-1.0/4+t*(1.0/5)))))
	return float64(e)*math.Ln2 + (c.log + p), e
}
