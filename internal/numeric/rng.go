// Package numeric provides the numerical substrate shared across the AIC
// reproduction: deterministic random number generation, dense linear
// solving, root finding, and compensated summation.
//
// Everything in this package is allocation-conscious and dependency-free so
// that it can sit on the hot path of the discrete-event simulator and the
// per-second checkpoint decider.
package numeric

import "math"

// RNG is a deterministic xoshiro256** pseudo-random generator seeded via
// splitmix64. It is NOT safe for concurrent use; give each goroutine its own
// stream (see Split).
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator whose state is derived from seed with
// splitmix64, so nearby seeds yield uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent child stream. The parent advances once, so
// repeated Split calls yield distinct children.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// State returns the generator's internal state, for checkpoint/restore of
// deterministic simulations.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state (the counterpart of
// State).
func (r *RNG) SetState(s [4]uint64) { r.s = s }

// Uint64 returns the next 64 random bits.
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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("numeric: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("numeric: Exp with non-positive rate")
	}
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Bytes fills dst with random bytes.
func (r *RNG) Bytes(dst []byte) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		v := r.Uint64()
		dst[i] = byte(v)
		dst[i+1] = byte(v >> 8)
		dst[i+2] = byte(v >> 16)
		dst[i+3] = byte(v >> 24)
		dst[i+4] = byte(v >> 32)
		dst[i+5] = byte(v >> 40)
		dst[i+6] = byte(v >> 48)
		dst[i+7] = byte(v >> 56)
	}
	if i < len(dst) {
		v := r.Uint64()
		for ; i < len(dst); i++ {
			dst[i] = byte(v)
			v >>= 8
		}
	}
}
