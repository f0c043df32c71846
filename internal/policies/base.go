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

// recency tracks per-frame last-use times to provide LRU ordering. A
// 64-bit timestamp is behaviorally identical to a log2(ways)-bit LRU
// stack; hardware would keep the compact encoding.
type recency struct {
	ways int
	last []uint64
	now  uint64
}

func (r *recency) attach(sets, ways int) {
	r.ways = ways
	r.last = make([]uint64, sets*ways)
	r.now = 0
}

func (r *recency) touch(set, way int) {
	r.now++
	r.last[set*r.ways+way] = r.now
}

// lru returns the least recently used way in set.
func (r *recency) lru(set int) int {
	base := set * r.ways
	best, bestAt := 0, r.last[base]
	for w := 1; w < r.ways; w++ {
		if at := r.last[base+w]; at < bestAt {
			best, bestAt = w, at
		}
	}
	return best
}

// stackPos returns the LRU stack position of way within set: 0 = MRU.
func (r *recency) stackPos(set, way int) int {
	base := set * r.ways
	mine := r.last[base+way]
	pos := 0
	for w := 0; w < r.ways; w++ {
		if w != way && r.last[base+w] > mine {
			pos++
		}
	}
	return pos
}

//ghrp:hotpath
func (r *recency) reset() {
	clear(r.last)
	r.now = 0
}

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
