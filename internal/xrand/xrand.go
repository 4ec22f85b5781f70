// Package xrand provides a small, fast, deterministic random number
// generator plus the sampling distributions used across the repository
// (uniform, Gaussian, Zipf, weighted choice).
//
// Every stochastic component in this codebase — the KG generator, the
// corpus generator, the random-walk estimator, the simulated evaluators —
// takes an explicit *xrand.Rand seeded by the caller, so that a run with
// a fixed seed reproduces every table and figure byte-for-byte. The
// stdlib math/rand would work too, but a local splitmix64/xoshiro core
// keeps the sequence stable across Go releases and lets us derive
// independent substreams cheaply.
package xrand

import "math"

// Rand is a deterministic PRNG (xoshiro256** seeded via splitmix64).
// It is not safe for concurrent use; derive per-goroutine streams with
// Fork or Stream.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the seed and returns the next value. It is used
// both for seeding and for hashing-style derivations.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	s := seed
	for i := range r.s {
		r.s[i] = splitmix64(&s)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next pseudo-random 64-bit value.
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

// Fork derives an independent generator whose stream is a deterministic
// function of the parent state and the label. The parent state is not
// advanced, so forks with distinct labels are stable regardless of how
// much the parent is used afterwards.
func (r *Rand) Fork(label uint64) *Rand {
	seed := r.s[0] ^ rotl(r.s[2], 13) ^ (label * 0x9e3779b97f4a7c15)
	return New(seed)
}

// Stream returns an independent generator derived from seed and label
// without constructing a parent. Useful for "substream per worker".
func Stream(seed, label uint64) *Rand {
	s := seed ^ (label+1)*0xd1342543de82ef95
	return New(splitmix64(&s))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method (no modulo bias).
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo1 := t & mask
	hi1 := t >> 32
	lo1 += aLo * bHi
	hi = aHi*bHi + hi1 + (lo1 >> 32)
	lo = a * b
	return hi, lo
}

// Range returns a uniform value in [lo, hi). It panics if hi <= lo.
func (r *Rand) Range(lo, hi int) int { return lo + r.Intn(hi-lo) }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal deviate (polar Box-Muller).
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

// Norm returns a normal deviate with the given mean and stddev.
func (r *Rand) Norm(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponential deviate with the given rate λ (> 0).
func (r *Rand) Exp(lambda float64) float64 {
	return -math.Log(1-r.Float64()) / lambda
}

// Zipf samples from a Zipf distribution over [0, n) with exponent s > 1
// is not required; s may be any value > 0. Implemented with a cached CDF
// so it is O(log n) per sample after O(n) setup.
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf builds a Zipf sampler over n ranks with exponent s.
func NewZipf(r *Rand, s float64, n int) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	return &Zipf{cdf: cdf, r: r}
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int {
	x := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// HashString maps a string to a stable 64-bit value (FNV-1a core mixed
// through splitmix64). Used for seed derivation from names.
func HashString(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return splitmix64(&h)
}
