// Package sim provides the deterministic cycle-driven simulation kernel
// shared by every model in this repository: a clock, a seedable random
// number generator, and a phase-barriered parallel executor.
//
// Determinism is a hard requirement — every experiment in the paper
// reproduction must be bit-identical across runs and across serial/parallel
// execution — so all randomness flows through RNG instances owned by a
// single simulation entity, never through shared global state.
package sim

// RNG is a small, fast xorshift128+ pseudo-random number generator.
// It is deliberately not cryptographically secure; it exists to make
// simulations deterministic, portable, and allocation-free.
//
// The zero value is not valid; construct with NewRNG.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed using SplitMix64, so that
// nearby seeds produce decorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitialises the generator state from seed.
func (r *RNG) Reseed(seed uint64) {
	// SplitMix64 to expand the seed into two nonzero words.
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// State returns the generator's two state words (for the determinism
// digest: two generators with equal state draw equal streams).
func (r *RNG) State() (s0, s1 uint64) { return r.s0, r.s1 }

// Fork derives a new independent generator from this one, suitable for
// handing to a child entity so the parent and child streams stay decoupled.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}
