// Package rng provides a small deterministic pseudo-random number
// generator used throughout the reproduction. Every experiment is a pure
// function of its seed: no package-level state, no time-based seeding.
//
// The generator is xoshiro256**, seeded through splitmix64 as its authors
// recommend. Streams can be split hierarchically (per subsystem, per run)
// so adding a consumer in one subsystem never perturbs another.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic PRNG. The zero value is not usable; construct
// with New or Split.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return &r
}

// Split derives an independent generator from r and a stream label.
// Splitting is deterministic: the same label always yields the same
// stream, and drawing from the child does not advance the parent.
func (r *Rand) Split(label string) *Rand {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	// Mix the parent's state (without advancing it) with the label hash.
	return New(h ^ r.s[0] ^ (r.s[2] << 1))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
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
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
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

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// Norm returns a standard normal variate (Box–Muller, one value per call
// pair amortized via caching would add state; we keep it simple and
// recompute).
func (r *Rand) Norm() float64 {
	// Rejection-free Box–Muller; guard against log(0).
	u := r.Float64()
	if u < 1e-300 {
		u = 1e-300
	}
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// NormScaled returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) NormScaled(mean, stddev float64) float64 {
	return mean + float64(stddev*r.Norm())
}

// Perm returns a random permutation of [0, n).
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

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// State is a snapshot of a generator's stream position. It is a value:
// copying it is copying the stream state, so one snapshot can seed any
// number of restored generators.
type State [4]uint64

// DigestFNV folds the stream position into a running FNV-64a hash
// (lane-wise: one XOR-multiply round per 64-bit word). State is a plain
// comparable value, so equality needs no helper; the digest hook exists
// so the divergence tracker in internal/sim can probe a whole run state
// — RNG streams included — with one rolling hash.
func (s State) DigestFNV(h uint64) uint64 {
	for _, w := range s {
		h = (h ^ w) * 1099511628211
	}
	return h
}

// Snapshot captures the generator's current stream position without
// advancing it.
func (r *Rand) Snapshot() State { return r.s }

// Restore rewinds (or fast-forwards) the generator to a snapshot taken
// from the same or any other generator. Subsequent draws reproduce the
// draws that followed the snapshot exactly.
func (r *Rand) Restore(s State) { r.s = s }
