// Package prng provides the deterministic pseudo-random generator used
// by the workload generators and the serving client. It
// replaces STAMP's Mersenne twister; determinism across runs is what
// matters for reproducibility, not the generator family.
package prng

import "math"

// R is a xorshift64* generator. Not safe for concurrent use; each
// thread owns its own.
type R struct {
	s uint64
}

// New creates a generator. A zero seed is remapped to a fixed
// constant, since xorshift has an all-zero fixed point.
func New(seed uint64) *R {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &R{s: seed}
}

// Next returns the next 64 random bits.
func (r *R) Next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *R) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(r.Next() % uint64(n))
}

// Uint64n returns a value in [0, n). It panics if n == 0.
func (r *R) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with zero n")
	}
	return r.Next() % n
}

// Float returns a value in [0, 1) with 53 bits of precision.
func (r *R) Float() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate) — the interarrival gap of a Poisson process, used by
// the open-loop client population. It panics if rate <= 0.
func (r *R) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("prng: Exp with non-positive rate")
	}
	// Float is in [0, 1), so 1-Float is in (0, 1] and the log is finite.
	return -math.Log(1-r.Float()) / rate
}

// Shuffle permutes xs in place (Fisher–Yates).
func (r *R) Shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Perm returns a random permutation of [0, n).
func (r *R) Perm(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	r.Shuffle(xs)
	return xs
}
