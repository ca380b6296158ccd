// Package xorshift is the repository's one deterministic pseudo-random
// stream: Marsaglia's xorshift64 with shifts 13/7/17. Workload data
// initialization, the workload generator, bootstrap resampling and chaos
// fault injection all draw from it, so every seeded run is reproducible
// bit for bit.
package xorshift

// Next advances a xorshift64 state by one step and returns the new state,
// which is also the drawn value. A zero state stays zero.
func Next(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// Rand is a seeded xorshift64 stream.
type Rand struct{ s uint64 }

// New returns a stream seeded with seed; a zero seed, which would never
// leave zero, is replaced by the 64-bit golden ratio.
func New(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Uint64 draws the next value.
func (r *Rand) Uint64() uint64 {
	r.s = Next(r.s)
	return r.s
}

// Intn draws a value in [0, n) by reduction modulo n.
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }
