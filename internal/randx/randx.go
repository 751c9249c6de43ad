// Package randx provides the deterministic pseudo-random number generation
// used everywhere in the repository. Reproducibility is a core requirement of
// the paper's methodology (Sec. 5.2: "Each execution itself is deterministic,
// with the sequence of random numbers determined by a seed that we input"),
// so every simulator run, variability injection, and statistical trial draws
// from an explicitly seeded generator from this package, never from global
// state.
//
// The generator is xoshiro256** seeded through SplitMix64, the standard
// recommendation for initializing xoshiro state. Streams can be split
// hierarchically with Split, which lets a single campaign seed derive
// independent per-run, per-component generators without correlation between
// sibling streams.
package randx

import (
	"math"
	"sync"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for stream derivation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. The zero value is NOT
// valid; construct with New.
type Rand struct {
	s [4]uint64
	// gauss caches the second variate of the Box–Muller pair.
	gauss    float64
	hasGauss bool
}

// New returns a generator seeded from the given 64-bit seed. Two generators
// constructed with the same seed produce identical sequences.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro requires a nonzero state; SplitMix64 cannot produce four
	// zeros from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new independent generator from this one, keyed by id.
// Splitting with distinct ids yields decorrelated streams; the parent's
// state is not advanced, so splits are order-independent:
// r.Split(a) is the same regardless of prior r.Split(b) calls.
func (r *Rand) Split(id uint64) *Rand {
	child := &Rand{}
	r.SplitInto(id, child)
	return child
}

// SplitInto reinitializes child to exactly the generator Split(id) would
// return, without allocating. Hot loops that derive one substream per work
// item (e.g. per bootstrap resample) reuse a single stack-allocated Rand
// this way. It only reads the parent's initial state, so concurrent
// SplitInto calls on a shared parent are safe.
func (r *Rand) SplitInto(id uint64, child *Rand) {
	// Mix the parent's initial state with the id through SplitMix64.
	sm := r.s[0] ^ (id * 0xd1342543de82ef95)
	for i := range child.s {
		child.s[i] = splitMix64(&sm)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 0x9e3779b97f4a7c15
	}
	child.gauss = 0
	child.hasGauss = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// UniformInt returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *Rand) UniformInt(lo, hi int) int {
	if hi < lo {
		panic("randx: UniformInt with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Normal returns a normal variate with the given mean and standard
// deviation, via Box–Muller with caching of the paired variate.
func (r *Rand) Normal(mean, sd float64) float64 {
	if r.hasGauss {
		r.hasGauss = false
		return mean + sd*r.gauss
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
	r.gauss = v * f
	r.hasGauss = true
	return mean + sd*u*f
}

// Exponential returns an exponential variate with the given rate λ > 0.
func (r *Rand) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("randx: Exponential with non-positive rate")
	}
	// 1-Float64() is in (0,1], so the log is finite.
	return -math.Log(1-r.Float64()) / rate
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// LogNormal returns exp(Normal(mu, sigma)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Pareto returns a Pareto(xm, alpha) variate (heavy-tailed, xm minimum).
func (r *Rand) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("randx: Pareto with non-positive parameter")
	}
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf returns integers in [0, n) following an approximate Zipf(s)
// distribution, used by workload generators for skewed address streams.
// It uses inverse-CDF sampling over a precomputed table; build the table
// once with NewZipf.
//
// A draw returns the first index whose CDF value is at least a uniform u.
// A guide table (the cutpoint method) finds it without a binary search:
// guide[j] is the first index whose CDF value is at least j/m, for
// m = len(guide). For u in [j/m, (j+1)/m) the answer is therefore at or
// after guide[j], and a forward scan from there stops exactly where the
// binary search would. m is a power of two, so u·m is exact and
// j = ⌊u·m⌋ never overshoots u. With n/8 ≤ m < n/4 a draw scans at most
// n/m ≤ 8 entries on average, whatever the skew, and the guide is at most
// an eighth of the CDF's size.
type Zipf struct {
	t *zipfTable
	r *Rand
}

type zipfTable struct {
	cdf   []float64
	guide []int32
}

// zipfCDFCache memoizes CDF tables and their guide tables by (n, s). Both
// are a pure function of the key — no randomness is drawn while building
// them — and are read-only after construction, so sharing one copy across
// samplers (and goroutines) yields bit-identical draws while skipping the
// O(n) math.Pow loop that would otherwise run on every workload build.
var zipfCDFCache sync.Map // zipfCDFKey → *zipfTable

type zipfCDFKey struct {
	n int
	s float64
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s > 0 drawing
// randomness from r.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("randx: NewZipf with non-positive n")
	}
	key := zipfCDFKey{n: n, s: s}
	if cached, ok := zipfCDFCache.Load(key); ok {
		return &Zipf{t: cached.(*zipfTable), r: r}
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	m := 1
	for m*8 < n {
		m *= 2
	}
	guide := make([]int32, m)
	i := 0
	for j := range guide {
		for i < n-1 && cdf[i] < float64(j)/float64(m) {
			i++
		}
		guide[j] = int32(i)
	}
	t := &zipfTable{cdf: cdf, guide: guide}
	zipfCDFCache.Store(key, t)
	return &Zipf{t: t, r: r}
}

// Next returns the next Zipf-distributed integer.
func (z *Zipf) Next() int { return z.index(z.r.Float64()) }

// index returns the first index whose CDF value is at least u, or n−1 if
// none is, for u in [0, 1).
func (z *Zipf) index(u float64) int {
	cdf := z.t.cdf
	i := int(z.t.guide[int(u*float64(len(z.t.guide)))])
	for i < len(cdf)-1 && cdf[i] < u {
		i++
	}
	return i
}
