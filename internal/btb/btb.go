// Package btb models the branch target buffer: a set-associative
// structure caching the targets of previously taken branches, with a
// pluggable replacement policy (the same cache.Policy interface as the
// I-cache) and the GHRP coupling of §III-E, where BTB dead-entry
// predictions are made from the I-cache's GHRP metadata and tables at
// almost no extra storage cost.
//
// The BTB is a cache.Cache whose blocks are instruction indices
// (pc >> log2(instrBytes)) plus a slab of targets indexed like the
// cache's frames. Modulo indexing at instruction granularity follows:
// branches in the same I-cache block map to distinct BTB sets (§III-E,
// reason 3). Tags, validity masks and targets can all be carved from a
// shared cache.Arena so a fan-out's lanes share one slab.
package btb

import (
	"fmt"

	"ghrpsim/internal/cache"
)

// Stats aggregates BTB outcomes. Misses are what the paper's BTB MPKI
// counts: taken branches whose target was absent.
type Stats struct {
	Accesses         uint64
	Hits             uint64
	Misses           uint64
	Bypasses         uint64
	Evictions        uint64
	TargetMismatches uint64 // hits whose stored target differed (indirect branches)
}

// MPKI returns misses per 1000 of the given instruction count.
func (s Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) * 1000 / float64(instructions)
}

// BTB is a set-associative branch target buffer.
type BTB struct {
	c          cache.Cache
	targets    []uint64 // indexed like c's frames
	instrShift uint
	mismatches uint64
}

// HotWords returns how many uint64 words of hot state (tags, validity
// masks and targets) a BTB with this geometry carves from a cache.Arena.
func HotWords(sets, ways int) int { return cache.HotWords(sets, ways) + sets*ways }

// New builds a BTB with entries = sets x ways, its arrays allocated
// privately and efficiency tracking on. sets must be a power of two.
// instrBytes sets the modulo-indexing granularity (typically 4).
func New(sets, ways int, instrBytes uint64, p cache.Policy) (*BTB, error) {
	b := new(BTB)
	if err := b.Init(sets, ways, instrBytes, p, nil); err != nil {
		return nil, err
	}
	b.TrackEfficiency()
	return b, nil
}

// Init initializes b in place, carving hot arrays from ar when non-nil.
// Efficiency tracking starts off, as for cache.Cache.Init; New turns it
// on.
func (b *BTB) Init(sets, ways int, instrBytes uint64, p cache.Policy, ar *cache.Arena) error {
	if instrBytes == 0 || instrBytes&(instrBytes-1) != 0 {
		return fmt.Errorf("btb: instrBytes %d must be a power of two", instrBytes)
	}
	*b = BTB{}
	if err := b.c.Init(sets, ways, p, ar); err != nil {
		return fmt.Errorf("btb: %w", err)
	}
	b.targets = cache.ArenaWords(ar, sets*ways)
	for v := instrBytes; v > 1; v >>= 1 {
		b.instrShift++
	}
	return nil
}

// Sets returns the number of sets.
func (b *BTB) Sets() int { return b.c.Sets() }

// Ways returns the associativity.
func (b *BTB) Ways() int { return b.c.Ways() }

// Policy returns the attached replacement policy.
func (b *BTB) Policy() cache.Policy { return b.c.Policy() }

// Stats returns a copy of the accumulated statistics.
func (b *BTB) Stats() Stats {
	s := b.c.Stats()
	return Stats{
		Accesses:         s.Accesses,
		Hits:             s.Hits,
		Misses:           s.Misses,
		Bypasses:         s.Bypasses,
		Evictions:        s.Evictions,
		TargetMismatches: b.mismatches,
	}
}

// TrackEfficiency turns on the cache's per-entry efficiency bookkeeping
// (see cache.Cache.TrackEfficiency).
func (b *BTB) TrackEfficiency() { b.c.TrackEfficiency() }

// Efficiency returns the per-entry live-time fraction matrix (sets x
// ways), used for the Fig. 5 heat map. All zeros when tracking is off.
func (b *BTB) Efficiency() [][]float64 { return b.c.Efficiency() }

// Lookup reports whether pc has a BTB entry and its cached target,
// without modifying any state.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	if f := b.c.Find(pc >> b.instrShift); f >= 0 {
		return b.targets[f], true
	}
	return 0, false
}

// Access records the execution of a taken branch at pc transferring to
// target. On a hit the entry's recency and target are refreshed (a
// target change is counted, as for indirect branches); on a miss a new
// entry is allocated unless the policy bypasses it. Returns whether the
// access hit.
//
//ghrp:hotpath
func (b *BTB) Access(pc, target uint64) (hit bool) {
	return AccessWith(b, b.c.Policy(), pc, target)
}

// AccessWith is Access with the replacement policy supplied as a type
// parameter: one cache.AccessWith over the branch's instruction index,
// then the target write at the frame it reports. The policy sees the
// index as Access.Block and the branch PC as Access.Policy.
//
//ghrp:hotpath
func AccessWith[P cache.Policy](b *BTB, p P, pc, target uint64) (hit bool) {
	hit, slot := cache.AccessWith(&b.c, p, cache.Access{Block: pc >> b.instrShift, PC: pc})
	if slot < 0 {
		return false
	}
	if hit && b.targets[slot] != target {
		b.mismatches++
	}
	b.targets[slot] = target
	return hit
}

// Reset returns the BTB to the state Init leaves it in — contents,
// statistics, clocks and policy state cleared, geometry,
// policy binding and efficiency tracking kept — without allocating.
//
//ghrp:hotpath
func (b *BTB) Reset() {
	b.c.Reset()
	clear(b.targets)
	b.mismatches = 0
}
