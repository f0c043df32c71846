package policies

import "ghrpsim/internal/cache"

// LRU is the least-recently-used replacement policy, the baseline of all
// the paper's comparisons.
type LRU struct {
	noBypass
	rec cache.Recency
}

// NewLRU returns an LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements cache.Policy.
func (p *LRU) Name() string { return "LRU" }

// Attach implements cache.Policy.
func (p *LRU) Attach(sets, ways int) { p.rec.Attach(sets, ways) }

// OnHit implements cache.Policy.
func (p *LRU) OnHit(a cache.Access, way int) { p.rec.Touch(a.Set, way) }

// Victim implements cache.Policy.
func (p *LRU) Victim(a cache.Access) (int, bool) { return p.rec.LRU(a.Set), false }

// OnInsert implements cache.Policy.
func (p *LRU) OnInsert(a cache.Access, way int) { p.rec.Touch(a.Set, way) }

// OnEvict implements cache.Policy.
func (p *LRU) OnEvict(a cache.Access, way int, evicted uint64) {}

// Reset implements cache.Policy.
//
//ghrp:hotpath
func (p *LRU) Reset() { p.rec.Reset() }

// FIFO is first-in, first-out replacement, one of the early policies
// evaluated for instruction caches by Smith and Goodman: a recency order
// that only insertions touch.
type FIFO struct {
	noBypass
	rec cache.Recency
}

// NewFIFO returns a FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements cache.Policy.
func (p *FIFO) Name() string { return "FIFO" }

// Attach implements cache.Policy.
func (p *FIFO) Attach(sets, ways int) { p.rec.Attach(sets, ways) }

// OnHit implements cache.Policy. Hits do not affect FIFO order.
func (p *FIFO) OnHit(a cache.Access, way int) {}

// Victim implements cache.Policy: the earliest inserted block.
func (p *FIFO) Victim(a cache.Access) (int, bool) { return p.rec.LRU(a.Set), false }

// OnInsert implements cache.Policy.
func (p *FIFO) OnInsert(a cache.Access, way int) { p.rec.Touch(a.Set, way) }

// OnEvict implements cache.Policy.
func (p *FIFO) OnEvict(a cache.Access, way int, evicted uint64) {}

// Reset implements cache.Policy.
//
//ghrp:hotpath
func (p *FIFO) Reset() { p.rec.Reset() }

// Random picks victims uniformly at random with a deterministic seed.
type Random struct {
	noBypass
	rng xorshift
	sed uint64
	wys int
}

// NewRandom returns a Random policy seeded deterministically.
func NewRandom(seed uint64) *Random { return &Random{rng: newXorshift(seed), sed: seed} }

// Name implements cache.Policy.
func (p *Random) Name() string { return "Random" }

// Attach implements cache.Policy.
func (p *Random) Attach(sets, ways int) { p.wys = ways }

// OnHit implements cache.Policy.
func (p *Random) OnHit(a cache.Access, way int) {}

// Victim implements cache.Policy.
func (p *Random) Victim(a cache.Access) (int, bool) { return p.rng.intn(p.wys), false }

// OnInsert implements cache.Policy.
func (p *Random) OnInsert(a cache.Access, way int) {}

// OnEvict implements cache.Policy.
func (p *Random) OnEvict(a cache.Access, way int, evicted uint64) {}

// Reset implements cache.Policy: the generator restarts from its seed.
//
//ghrp:hotpath
func (p *Random) Reset() { p.rng = newXorshift(p.sed) }
