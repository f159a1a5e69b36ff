// Package rng is the repository's one pseudo-random generator: SplitMix64
// (Steele, Lea & Flood; public domain). Everything seeded here — simulator
// noise and per-pair fork seeds, graph and DAG generators, retry jitter,
// fault-injection draws, trace IDs — derives from Mix, so one seed means one
// stream bit-for-bit on every platform, with no global state.
//
// Two idioms cover every caller. Counter-based: Mix(f(seed, i)) for the
// i-th independent draw. Streaming: keep a uint64 state, draw Mix(state),
// then advance the state by Increment.
package rng

// Increment is SplitMix64's state increment, the odd integer nearest
// 2^64/φ.
const Increment = 0x9E3779B97F4A7C15

// Mix returns the SplitMix64 output for the state x: the next value of a
// stream whose state is x, or a hash of x.
func Mix(x uint64) uint64 {
	x += Increment
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
