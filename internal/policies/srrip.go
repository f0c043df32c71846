package policies

import "ghrpsim/internal/cache"

// SRRIP implements Static Re-reference Interval Prediction (Jaleel et
// al., ISCA 2010) with M=2 bits per block, the configuration the paper
// compares against. Blocks are inserted with a long re-reference
// prediction value (RRPV = 2^M - 2), promoted to 0 on a hit
// (hit-priority), and victims are blocks with the distant value
// (RRPV = 2^M - 1), aging the whole set when none exists.
type SRRIP struct {
	noBypass
	bits int
	max  uint8 // distant re-reference value: 2^bits - 1
	long uint8 // insertion value: 2^bits - 2
	ways int
	rrpv []uint8
}

// NewSRRIP returns a 2-bit SRRIP policy.
func NewSRRIP() *SRRIP { return NewSRRIPBits(2) }

// NewSRRIPBits returns an SRRIP policy with the given RRPV width in
// [1, 8].
func NewSRRIPBits(bits int) *SRRIP {
	if bits < 1 {
		bits = 1
	}
	if bits > 8 {
		bits = 8
	}
	max := uint8(1)<<bits - 1
	return &SRRIP{bits: bits, max: max, long: max - 1}
}

// Name implements cache.Policy.
func (p *SRRIP) Name() string { return "SRRIP" }

// Attach implements cache.Policy.
func (p *SRRIP) Attach(sets, ways int) {
	p.ways = ways
	p.rrpv = make([]uint8, sets*ways)
	for i := range p.rrpv {
		p.rrpv[i] = p.max
	}
}

// OnHit implements cache.Policy: hit-priority promotion to RRPV 0.
func (p *SRRIP) OnHit(a cache.Access, way int) {
	p.rrpv[a.Set*p.ways+way] = 0
}

// Victim implements cache.Policy: evict the first block with the distant
// RRPV, aging the set until one appears.
func (p *SRRIP) Victim(a cache.Access) (int, bool) {
	base := a.Set * p.ways
	for {
		for w := 0; w < p.ways; w++ {
			if p.rrpv[base+w] == p.max {
				return w, false
			}
		}
		for w := 0; w < p.ways; w++ {
			p.rrpv[base+w]++
		}
	}
}

// OnInsert implements cache.Policy: long re-reference interval insertion.
func (p *SRRIP) OnInsert(a cache.Access, way int) {
	p.rrpv[a.Set*p.ways+way] = p.long
}

// OnEvict implements cache.Policy.
func (p *SRRIP) OnEvict(a cache.Access, way int, evicted uint64) {}

// Reset implements cache.Policy.
//
//ghrp:hotpath
func (p *SRRIP) Reset() {
	for i := range p.rrpv {
		p.rrpv[i] = p.max
	}
}
