package kernel

import "math"

// RNG is the simulator's random stream: a SplitMix64 generator with the
// derived draws the SSA needs (uniforms for reaction selection, exponential
// waiting times).
//
// It replaces math/rand on the hot paths for two reasons. First, state is a
// single uint64 and a step is three xor-shift-multiply lines, so an ensemble
// block can hold one independent stream per lane by value — no pointer
// chasing, no heap allocation, trivially copyable. Second, and decisively
// for the ensemble engine: a lane's stream is a pure function of its seed,
// so a run's trace is bit-identical at every block width (pinned against
// golden digests by TestEnsembleBitIdentical). math/rand's generator state
// could not be embedded per lane without an allocation and an interface
// call per draw.
//
// The zero value is a valid stream (the seed-0 stream).
type RNG struct {
	s uint64
}

// Seed resets the stream to the given seed. Distinct seeds — including
// adjacent ones — give statistically independent streams: SplitMix64's
// output function is a bijective avalanche over the counter, which is
// exactly why batch.DeriveSeed uses the same finalizer.
func (r *RNG) Seed(seed int64) {
	r.s = uint64(seed)
}

// Uint64 advances the stream: the SplitMix64 step (Steele, Lea & Flood),
// a Weyl-sequence increment followed by a 64-bit finalizer.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an Exp(1) draw by exact inversion, -ln(1-U). Inversion
// costs one log where a ziggurat costs a table lookup, but it consumes
// exactly one uniform per draw unconditionally — a fixed consumption
// schedule is what keeps a lane's draws independent of how its block is
// scheduled.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}
