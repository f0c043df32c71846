// Package cache implements a generic set-associative cache model with a
// pluggable replacement policy, optional bypass, and per-frame cache
// efficiency tracking (the fraction of time a frame holds a live block,
// after Burger et al., used for the paper's Fig. 1 and Fig. 5 heat maps).
//
// The cache is tag-only: it models presence, not contents. Addresses are
// block numbers (byte address >> log2(blockBytes)); callers decide the
// granularity.
//
// Internally the cache is laid out structure-of-arrays: the per-access
// tag scan touches only a contiguous []uint64 tag array plus one
// per-set validity bitmask word, while the efficiency bookkeeping
// (insert/last-use/live times, written at most once per access) lives
// in a separate cold array. Many caches can carve their hot arrays from
// one shared Arena so that, for example, a fan-out's N policy lanes
// keep their set/way state in a single contiguous slab.
package cache

import (
	"fmt"
	"math/bits"
)

// Access carries the context of one cache access to the replacement
// policy. Block is the block number being accessed; PC is the address of
// the instruction performing the access (for signature-based policies);
// Set is filled in by the cache.
type Access struct {
	Block uint64
	PC    uint64
	Set   int
}

// Policy is a replacement policy plugged into a Cache. The cache drives
// the policy through the following protocol:
//
//	hit:   OnHit(a, way)
//	miss:  way, bypass := Victim(a)
//	       if bypass: OnBypass(a)
//	       else:      OnEvict(a, way, oldTag) if the frame was valid,
//	                  then OnInsert(a, way)
//
// Victim is consulted even when the set has an invalid (empty) frame; the
// cache passes the empty way through OnInsert without calling Victim in
// that case, except policies may still bypass via MayBypass.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Attach binds the policy to the cache geometry before first use.
	Attach(sets, ways int)
	// OnHit records a hit at (a.Set, way).
	OnHit(a Access, way int)
	// Victim chooses the way to evict in a.Set, or reports bypass=true
	// to keep the incoming block out of the cache entirely.
	Victim(a Access) (way int, bypass bool)
	// MayBypass decides, for a miss landing in a set with a free frame,
	// whether the incoming block should still be bypassed. Policies
	// without bypass support return false.
	MayBypass(a Access) bool
	// OnBypass records that the incoming block was not inserted.
	OnBypass(a Access)
	// OnInsert records placement of a.Block at (a.Set, way).
	OnInsert(a Access, way int)
	// OnEvict records eviction of evicted from (a.Set, way) to make room.
	OnEvict(a Access, way int, evicted uint64)
	// Reset clears all policy state.
	Reset()
}

// Stats aggregates cache access outcomes.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Bypasses  uint64
	Evictions uint64
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MPKI returns misses per 1000 of the given instruction count.
func (s Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) * 1000 / float64(instructions)
}

// effTimes is one frame's efficiency bookkeeping (generation = residency
// of one block). It is deliberately separate from the tag array: the
// per-access tag scan never touches it, only hits (one word) and
// insertions/evictions do.
type effTimes struct {
	insertAt  uint64
	lastUseAt uint64
	liveTime  uint64 // accumulated live time of completed generations
}

// MaxWays bounds associativity so each set's validity fits one bitmask
// word.
const MaxWays = 64

// Cache is a set-associative, tag-only cache.
type Cache struct {
	sets int
	ways int
	// Hot state, scanned once per access: block tags in set-major order
	// and one validity bitmask word per set (bit w = way w holds a
	// block). Both may be carved from a shared Arena.
	tags  []uint64
	valid []uint64
	// Cold state: efficiency bookkeeping, indexed like tags.
	eff    []effTimes
	policy Policy
	stats  Stats
	now    uint64 // logical time: one tick per access
	warmup bool   // when true, accesses update state but not stats
	birth  uint64 // time of first access (for efficiency denominators)
	born   bool
}

// HotWords returns how many uint64 words of hot state (tags plus
// validity masks) a cache with this geometry carves from an Arena.
func HotWords(sets, ways int) int { return sets*ways + sets }

// New builds a cache with the given geometry and policy, its arrays
// allocated privately and efficiency tracking on. sets must be a power
// of two; ways is capped at MaxWays.
func New(sets, ways int, p Policy) (*Cache, error) {
	c := new(Cache)
	if err := c.Init(sets, ways, p, nil); err != nil {
		return nil, err
	}
	c.TrackEfficiency()
	return c, nil
}

// Init initializes c in place (so callers can lay cache headers out
// contiguously themselves), carving hot arrays from ar when non-nil.
// Efficiency tracking starts off (see TrackEfficiency): New turns it
// on, while the fan-out's policy lanes, whose results never read
// Efficiency, leave it off.
func (c *Cache) Init(sets, ways int, p Policy, ar *Arena) error {
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: sets %d must be a positive power of two", sets)
	}
	if ways <= 0 || ways > MaxWays {
		return fmt.Errorf("cache: ways %d out of range [1,%d]", ways, MaxWays)
	}
	if p == nil {
		return fmt.Errorf("cache: nil policy")
	}
	p.Attach(sets, ways)
	*c = Cache{
		sets:   sets,
		ways:   ways,
		tags:   ar.take(sets * ways),
		valid:  ar.take(sets),
		policy: p,
	}
	return nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Policy returns the attached replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// SetWarmup toggles the statistics freeze: accesses change state but
// are not counted. The simulator brackets fills that are not demand
// traffic (prefetches, wrong-path fetch) with it; warm-up itself is
// subtracted from the counters afterwards.
func (c *Cache) SetWarmup(on bool) { c.warmup = on }

// TrackEfficiency turns on per-frame efficiency bookkeeping, one
// cold-array write per access. New turns it on; a cache set up with
// Init starts without it, so only callers that read Efficiency pay for
// the array. Replacement decisions and statistics are unaffected.
func (c *Cache) TrackEfficiency() {
	if c.eff == nil {
		c.eff = make([]effTimes, c.sets*c.ways)
	}
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// SetIndex maps a block number to its set.
func (c *Cache) SetIndex(block uint64) int { return int(block & uint64(c.sets-1)) }

// Lookup reports whether block is resident, without touching any state.
//
//ghrp:hotpath
func (c *Cache) Lookup(block uint64) bool { return c.Find(block) >= 0 }

// Find returns the frame set*ways+way holding block, or -1 when block is
// not resident, without touching any state.
//
//ghrp:hotpath
func (c *Cache) Find(block uint64) int {
	set := c.SetIndex(block)
	base := set * c.ways
	for m := c.valid[set]; m != 0; m &= m - 1 {
		if f := base + bits.TrailingZeros64(m); c.tags[f] == block {
			return f
		}
	}
	return -1
}

// Access performs one cache access with the given context and returns
// whether it hit. On a miss the block is inserted unless the policy
// bypasses it.
func (c *Cache) Access(a Access) (hit bool) {
	hit, _ = AccessWith(c, c.policy, a)
	return hit
}

// AccessWith is Access with the replacement policy supplied as a type
// parameter. It also reports slot, the frame set*ways+way that holds the
// block after the access, or -1 when a missing block was bypassed, so a
// caller can keep per-frame payload (the BTB's targets) alongside the
// tags. Instantiated with a concrete (non-interface) policy type, the
// compiler emits a per-policy copy of the access path whose policy
// callbacks are bound statically and inlined — the devirtualization an
// interface-typed policy field cannot express. The fan-out's per-lane
// specialized step functions are built on these instantiations; Access
// funnels through the interface-typed instantiation, so the two paths
// cannot diverge. Scanning ways in ascending bit order and
// choosing the lowest free way keeps the protocol bit-identical to the
// historical frame walk.
//
//ghrp:hotpath
func AccessWith[P Policy](c *Cache, p P, a Access) (hit bool, slot int) {
	a.Set = c.SetIndex(a.Block)
	c.now++
	if !c.born {
		c.birth = c.now
		c.born = true
	}
	if !c.warmup {
		c.stats.Accesses++
	}

	// Hit path: scan only the valid ways' tags, one contiguous word each.
	base := a.Set * c.ways
	vm := c.valid[a.Set]
	for m := vm; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.tags[base+w] == a.Block {
			if !c.warmup {
				c.stats.Hits++
			}
			if c.eff != nil {
				c.eff[base+w].lastUseAt = c.now
			}
			p.OnHit(a, w)
			return true, base + w
		}
	}

	// Miss path.
	if !c.warmup {
		c.stats.Misses++
	}
	if free := bits.TrailingZeros64(^vm); free < c.ways {
		if p.MayBypass(a) {
			if !c.warmup {
				c.stats.Bypasses++
			}
			p.OnBypass(a)
			return false, -1
		}
		return false, installWith(c, p, a, free)
	}
	way, bypass := p.Victim(a)
	if bypass {
		if !c.warmup {
			c.stats.Bypasses++
		}
		p.OnBypass(a)
		return false, -1
	}
	if way < 0 || way >= c.ways {
		//ghrplint:ignore hotalloc cold invariant-violation path; fires only on a buggy policy, never in a clean replay
		panic(fmt.Sprintf("cache: policy %s returned way %d of %d", p.Name(), way, c.ways))
	}
	if !c.warmup {
		c.stats.Evictions++
	}
	// Close the evicted generation for efficiency accounting: the block
	// was live from insertion until its last use.
	if c.eff != nil {
		e := &c.eff[base+way]
		e.liveTime += e.lastUseAt - e.insertAt
	}
	p.OnEvict(a, way, c.tags[base+way])
	return false, installWith(c, p, a, way)
}

// installWith places a.Block at (a.Set, way) and returns its frame.
//
//ghrp:hotpath
func installWith[P Policy](c *Cache, p P, a Access, way int) int {
	i := a.Set*c.ways + way
	c.tags[i] = a.Block
	c.valid[a.Set] |= 1 << uint(way)
	if c.eff != nil {
		c.eff[i].insertAt = c.now
		c.eff[i].lastUseAt = c.now
	}
	p.OnInsert(a, way)
	return i
}

// Efficiency returns the per-frame cache efficiency matrix: for each
// (set, way), the fraction of elapsed time the frame held a live block.
// A block is live from insertion until its final access before eviction.
// Frames never filled have efficiency 0, as does everything when
// tracking is off (see TrackEfficiency).
func (c *Cache) Efficiency() [][]float64 {
	out := make([][]float64, c.sets)
	if c.eff == nil {
		for s := range out {
			out[s] = make([]float64, c.ways)
		}
		return out
	}
	elapsed := float64(0)
	if c.born && c.now > c.birth {
		elapsed = float64(c.now - c.birth)
	}
	for s := 0; s < c.sets; s++ {
		row := make([]float64, c.ways)
		for w := 0; w < c.ways; w++ {
			e := &c.eff[s*c.ways+w]
			live := e.liveTime
			if c.valid[s]&(1<<uint(w)) != 0 {
				live += e.lastUseAt - e.insertAt
			}
			if elapsed > 0 {
				row[w] = float64(live) / elapsed
				if row[w] > 1 {
					row[w] = 1
				}
			}
		}
		out[s] = row
	}
	return out
}

// MeanEfficiency averages Efficiency over all frames.
func (c *Cache) MeanEfficiency() float64 {
	eff := c.Efficiency()
	sum, n := 0.0, 0
	for _, row := range eff {
		for _, v := range row {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Reset returns the cache to the state Init leaves it in — contents,
// statistics, clocks, warm-up mode and policy state cleared, geometry,
// policy binding and efficiency tracking kept — without allocating.
//
//ghrp:hotpath
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.valid)
	clear(c.eff)
	c.stats = Stats{}
	c.now = 0
	c.birth = 0
	c.born = false
	c.warmup = false
	c.policy.Reset()
}
