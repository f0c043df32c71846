// Package policies implements the replacement policies the paper compares
// GHRP against: LRU, Random, FIFO, SRRIP, and the modified
// sampling-based dead block predictor (SDBP) of §IV-A. All policies
// implement cache.Policy.
package policies

import "ghrpsim/internal/cache"

// noBypass provides the bypass-free defaults shared by simple policies.
type noBypass struct{}

func (noBypass) MayBypass(cache.Access) bool { return false }
func (noBypass) OnBypass(cache.Access)       {}

// xorshift is a small deterministic PRNG for the Random policy; the
// simulator must be reproducible run-to-run, so policies never use
// global randomness.
type xorshift uint64

func newXorshift(seed uint64) xorshift {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return xorshift(seed)
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) intn(n int) int {
	return int(x.next() % uint64(n))
}
