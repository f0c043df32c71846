// Package btb models the branch target buffer: a set-associative
// structure caching the targets of previously taken branches, with a
// pluggable replacement policy (the same cache.Policy interface as the
// I-cache) and the GHRP coupling of §III-E, where BTB dead-entry
// predictions are made from the I-cache's GHRP metadata and tables at
// almost no extra storage cost.
//
// The BTB uses modulo indexing at instruction granularity, so branches in
// the same I-cache block map to distinct BTB sets (§III-E, reason 3).
//
// Like the I-cache model, the BTB is laid out structure-of-arrays: the
// per-access scan reads a contiguous branch-PC array plus one validity
// bitmask word per set; targets and efficiency bookkeeping live in
// separate arrays off the scan path. Hot arrays can be carved from a
// shared cache.Arena so a fan-out's lanes share one slab.
package btb

import (
	"fmt"
	"math/bits"

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

// effTimes is one entry's efficiency bookkeeping, mirroring the cache's.
type effTimes struct {
	insertAt  uint64
	lastUseAt uint64
	liveTime  uint64
}

// BTB is a set-associative branch target buffer.
type BTB struct {
	sets       int
	ways       int
	instrShift uint
	// Hot state: branch PCs in set-major order, the matching targets,
	// and one validity bitmask word per set. All three may be carved
	// from a shared cache.Arena.
	pcs     []uint64
	targets []uint64
	valid   []uint64
	// Cold state: efficiency bookkeeping, indexed like pcs.
	eff    []effTimes
	policy cache.Policy
	stats  Stats
	now    uint64
	born   bool
	birth  uint64
}

// HotWords returns how many uint64 words of hot state (PCs, targets and
// validity masks) a BTB with this geometry carves from a cache.Arena.
func HotWords(sets, ways int) int { return 2*sets*ways + sets }

// New builds a BTB with entries = sets x ways. sets must be a power of
// two. instrBytes sets the modulo-indexing granularity (typically 4).
func New(sets, ways int, instrBytes uint64, p cache.Policy) (*BTB, error) {
	return NewInArena(sets, ways, instrBytes, p, nil)
}

// NewInArena is New with the hot arrays carved from ar; a nil arena
// allocates privately.
func NewInArena(sets, ways int, instrBytes uint64, p cache.Policy, ar *cache.Arena) (*BTB, error) {
	b := new(BTB)
	if err := b.Init(sets, ways, instrBytes, p, ar); err != nil {
		return nil, err
	}
	b.TrackEfficiency()
	return b, nil
}

// Init initializes b in place, carving hot arrays from ar when non-nil.
// Efficiency tracking starts off, as for cache.Cache.Init; New and
// NewInArena turn it on.
func (b *BTB) Init(sets, ways int, instrBytes uint64, p cache.Policy, ar *cache.Arena) error {
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("btb: sets %d must be a positive power of two", sets)
	}
	if ways <= 0 || ways > cache.MaxWays {
		return fmt.Errorf("btb: ways %d out of range [1,%d]", ways, cache.MaxWays)
	}
	if instrBytes == 0 || instrBytes&(instrBytes-1) != 0 {
		return fmt.Errorf("btb: instrBytes %d must be a power of two", instrBytes)
	}
	if p == nil {
		return fmt.Errorf("btb: nil policy")
	}
	shift := uint(0)
	for v := instrBytes; v > 1; v >>= 1 {
		shift++
	}
	p.Attach(sets, ways)
	*b = BTB{
		sets:       sets,
		ways:       ways,
		instrShift: shift,
		pcs:        cache.ArenaWords(ar, sets*ways),
		targets:    cache.ArenaWords(ar, sets*ways),
		valid:      cache.ArenaWords(ar, sets),
		policy:     p,
	}
	return nil
}

// Sets returns the number of sets.
func (b *BTB) Sets() int { return b.sets }

// Ways returns the associativity.
func (b *BTB) Ways() int { return b.ways }

// Entries returns the total entry count.
func (b *BTB) Entries() int { return b.sets * b.ways }

// Policy returns the attached replacement policy.
func (b *BTB) Policy() cache.Policy { return b.policy }

// Stats returns a copy of the accumulated statistics.
func (b *BTB) Stats() Stats { return b.stats }

// TrackEfficiency turns on per-entry efficiency bookkeeping, one
// cold-array write per access. New and NewInArena turn it on; a BTB set
// up with Init starts without it, so only callers that read Efficiency
// pay for the array. Replacement decisions and statistics are
// unaffected.
func (b *BTB) TrackEfficiency() {
	if b.eff == nil {
		b.eff = make([]effTimes, b.sets*b.ways)
	}
}

// setIndex maps a branch PC to its set by modulo indexing at instruction
// granularity.
func (b *BTB) setIndex(pc uint64) int {
	return int((pc >> b.instrShift) & uint64(b.sets-1))
}

// key is the policy-facing identifier for a branch: its instruction
// index, so policies see distinct "blocks" per branch.
func (b *BTB) key(pc uint64) uint64 { return pc >> b.instrShift }

// Lookup reports whether pc has a BTB entry and its cached target,
// without modifying any state.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	set := b.setIndex(pc)
	base := set * b.ways
	for m := b.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if b.pcs[base+w] == pc {
			return b.targets[base+w], true
		}
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
	return AccessWith(b, b.policy, pc, target)
}

// AccessWith is Access with the replacement policy supplied as a type
// parameter, mirroring cache.AccessWith: concrete instantiations bind
// the policy callbacks statically for the fan-out's specialized lanes,
// while the interface-typed instantiation backs the plain Access
// method. Scan order and free-way choice are bit-identical to the
// historical entry walk.
//
//ghrp:hotpath
func AccessWith[P cache.Policy](b *BTB, p P, pc, target uint64) (hit bool) {
	set := b.setIndex(pc)
	a := cache.Access{Block: b.key(pc), PC: pc, Set: set}
	b.now++
	if !b.born {
		b.born = true
		b.birth = b.now
	}
	b.stats.Accesses++

	base := set * b.ways
	vm := b.valid[set]
	for m := vm; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if b.pcs[base+w] == pc {
			b.stats.Hits++
			if b.targets[base+w] != target {
				b.stats.TargetMismatches++
			}
			b.targets[base+w] = target
			if b.eff != nil {
				b.eff[base+w].lastUseAt = b.now
			}
			p.OnHit(a, w)
			return true
		}
	}

	b.stats.Misses++
	if free := bits.TrailingZeros64(^vm); free < b.ways {
		if p.MayBypass(a) {
			b.stats.Bypasses++
			p.OnBypass(a)
			return false
		}
		installWith(b, p, a, free, pc, target)
		return false
	}
	way, bypass := p.Victim(a)
	if bypass {
		b.stats.Bypasses++
		p.OnBypass(a)
		return false
	}
	if way < 0 || way >= b.ways {
		//ghrplint:ignore hotalloc cold invariant-violation path; fires only on a buggy policy, never in a clean replay
		panic(fmt.Sprintf("btb: policy %s returned way %d of %d", p.Name(), way, b.ways))
	}
	b.stats.Evictions++
	if b.eff != nil {
		e := &b.eff[base+way]
		e.liveTime += e.lastUseAt - e.insertAt
	}
	p.OnEvict(a, way, b.key(b.pcs[base+way]))
	installWith(b, p, a, way, pc, target)
	return false
}

//ghrp:hotpath
func installWith[P cache.Policy](b *BTB, p P, a cache.Access, way int, pc, target uint64) {
	i := a.Set*b.ways + way
	b.pcs[i] = pc
	b.targets[i] = target
	b.valid[a.Set] |= 1 << uint(way)
	if b.eff != nil {
		b.eff[i].insertAt = b.now
		b.eff[i].lastUseAt = b.now
	}
	p.OnInsert(a, way)
}

// Efficiency returns the per-entry live-time fraction matrix (sets x
// ways), used for the Fig. 5 heat map. All zeros when tracking is off
// (see TrackEfficiency).
func (b *BTB) Efficiency() [][]float64 {
	out := make([][]float64, b.sets)
	if b.eff == nil {
		for s := range out {
			out[s] = make([]float64, b.ways)
		}
		return out
	}
	elapsed := float64(0)
	if b.born && b.now > b.birth {
		elapsed = float64(b.now - b.birth)
	}
	for s := 0; s < b.sets; s++ {
		row := make([]float64, b.ways)
		for w := 0; w < b.ways; w++ {
			e := &b.eff[s*b.ways+w]
			live := e.liveTime
			if b.valid[s]&(1<<uint(w)) != 0 {
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

// Reset returns the BTB to the state Init leaves it in — contents,
// statistics, clocks and policy state cleared, geometry,
// policy binding and efficiency tracking kept — without allocating.
//
//ghrp:hotpath
func (b *BTB) Reset() {
	clear(b.pcs)
	clear(b.targets)
	clear(b.valid)
	clear(b.eff)
	b.stats = Stats{}
	b.now = 0
	b.birth = 0
	b.born = false
	b.policy.Reset()
}
