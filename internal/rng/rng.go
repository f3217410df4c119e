// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every sampling component in the repository.
//
// All PITEX estimators are randomized; reproducible experiments therefore
// need explicit seeding and the ability to derive independent streams (one
// per worker, one per sample batch) without locking. The generator is
// xoshiro256++ seeded through splitmix64, the combination recommended by the
// xoshiro authors, and is not safe for concurrent use: derive one Source per
// goroutine with Split.
package rng

import "math"

// Source is a deterministic pseudo-random number generator.
// The zero value is not usable; construct one with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed. Two Sources constructed
// from the same seed produce identical streams.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed restarts r on the stream New(seed) starts, so a Source kept by
// value can begin a new stream without allocating.
func (r *Source) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm = splitmix64(&sm)
		r.s[i] = sm
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// splitmix64 advances *x and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Mix folds the given values into one well-distributed 64-bit seed via a
// splitmix64 chain. Components that need a randomness stream keyed to a
// tuple of arguments — rather than one fixed per-engine stream — derive
// it with New(Mix(seed, domain, args...)): equal tuples give equal
// streams, and any differing component decorrelates the whole stream.
func Mix(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= p
		h = splitmix64(&h)
	}
	return h
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return hi, lo
}

// Split derives a new Source whose stream is independent of the receiver's
// future output. It consumes one value from the receiver.
func (r *Source) Split() *Source {
	seed := r.Uint64()
	return New(seed)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
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

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Never is the value Geometric returns for a success probability of zero:
// the event never fires within any finite number of trials.
const Never = math.MaxInt64

// Geometric returns the 1-based index of the first success in a sequence of
// Bernoulli(p) trials: Pr[X = x] = (1-p)^(x-1) · p for x >= 1.
//
// Lazy propagation sampling (paper Sec. 5.1) draws these to skip ahead to
// the next sample instance in which an edge fires. Edge cases: p <= 0
// returns Never, p >= 1 returns 1.
func (r *Source) Geometric(p float64) int64 {
	if p <= 0 {
		return Never
	}
	if p >= 1 {
		return 1
	}
	// Inversion: X = ceil(ln U / ln(1-p)), U uniform in (0, 1).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	x := math.Ceil(math.Log(u) / math.Log1p(-p))
	if x < 1 {
		return 1
	}
	if x >= float64(Never) {
		return Never
	}
	return int64(x)
}

// GeometricInvLog is Geometric for a caller that draws many gaps for the
// same p and caches invLog = 1/ln(1-p), saving one of the inversion's two
// logarithms per draw. The limits carry the edge cases: invLog = -Inf
// (p = 0) returns Never and invLog = -0 (p = 1) returns 1.
func (r *Source) GeometricInvLog(invLog float64) int64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	x := math.Ceil(math.Log(u) * invLog)
	if x < 1 {
		return 1
	}
	if x >= float64(Never) {
		return Never
	}
	return int64(x)
}

// Bernoulli reports true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// UniformIn returns a uniform float64 in [0, hi). If hi <= 0 it returns 0.
func (r *Source) UniformIn(hi float64) float64 {
	if hi <= 0 {
		return 0
	}
	return r.Float64() * hi
}
