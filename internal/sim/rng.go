// Package sim provides the deterministic cycle-level simulation kernel used
// by every other package in this repository: a seeded pseudo-random number
// generator, a cycle clock, and run-phase bookkeeping (warmup, measurement,
// drain).
//
// All simulations in this repository are single-threaded and cycle-driven,
// mirroring the structure of FlexSim 1.2, the flit-level simulator used in
// the paper. Determinism is a hard requirement: two runs with the same seed
// and configuration must produce bit-identical statistics, so every source
// of randomness flows through RNG.
package sim

import (
	"math"
	"math/bits"

	"repro/internal/ckpt"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256**). It is deliberately not backed by math/rand so that the
// stream is stable across Go releases; reproduction experiments encode seeds
// in EXPERIMENTS.md and must replay exactly.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed using splitmix64, which
// guarantees a well-mixed non-zero internal state for any seed value.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed is NewRNG's body, apart so that NewRNG inlines and a caller that stores
// the value (a slab of per-endpoint streams) allocates nothing.
func (r *RNG) seed(sm uint64) {
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Checkpoint names the generator's state (see package ckpt): the stream
// position, unhashed because the model checker enumerates choices instead of
// drawing them.
func (r *RNG) Checkpoint(c *ckpt.C) {
	if c.Unhashed() {
		for i := range r.s {
			ckpt.Int(c, &r.s[i])
		}
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits of the stream.
func (r *RNG) Uint64() uint64 {
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
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded output.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// threshold53 is the integer t for which x < t exactly when
// float64(x)/(1<<53) < p, for every 53-bit x and 0 < p < 1: scaling by a power
// of two is exact, so the float comparison is x < p*2^53, and an integer is
// below a real exactly when it is below its ceiling.
func threshold53(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// FirstBelow makes up to max Bernoulli(p) draws and stops at the first
// success: it returns that draw's index and true, or max and false when all
// max fail. The stream ends exactly where that many Bernoulli calls would
// leave it — none for p <= 0 (never) and p >= 1 (at once), like Bernoulli —
// but the generator runs with its state in registers and compares integers,
// which is what lets a traffic source draw an endpoint's arrivals ahead
// instead of once per cycle. A NaN p never succeeds and draws nothing.
func (r *RNG) FirstBelow(p float64, max int) (int, bool) {
	if !(p > 0) {
		return max, false
	}
	if p >= 1 {
		return 0, max > 0
	}
	t := threshold53(p)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	i, hit := 0, false
	for ; i < max; i++ {
		u := rotl(s1*5, 7) * 9
		x := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= x
		s3 = rotl(s3, 45)
		if u>>11 < t {
			hit = true
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return i, hit
}

// Pick selects an index from a discrete distribution given by weights.
// Weights need not be normalized; all must be non-negative with a positive
// sum. It panics on an empty or all-zero weight vector.
func (r *RNG) Pick(weights []float64) int {
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("sim: negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("sim: Pick with zero total weight")
	}
	x := r.Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// IntnExcept returns a uniform integer in [0, n) that is not equal to except.
// It panics if n < 2.
func (r *RNG) IntnExcept(n, except int) int {
	if n < 2 {
		panic("sim: IntnExcept needs n >= 2")
	}
	v := r.Intn(n - 1)
	if v >= except {
		v++
	}
	return v
}

// Shuffle permutes the first n indices using swap, Fisher-Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Split derives an independent generator from this one, for components that
// need their own stream (e.g. per-node traffic sources) without perturbing
// the parent's sequence when the component count changes.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
