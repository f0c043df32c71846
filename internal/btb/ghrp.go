package btb

import (
	"fmt"

	"ghrpsim/internal/cache"
	"ghrpsim/internal/core"
)

// GHRPPolicy adapts GHRP to BTB replacement per §III-E. It owns no
// prediction tables: every BTB access consults the metadata of the
// branch's containing I-cache block through the I-cache GHRP policy, so
// the only added storage is one prediction bit per BTB entry. The BTB
// dead threshold is tuned separately from the I-cache's to minimize
// false dead predictions (which can cause misses) while keeping coverage.
type GHRPPolicy struct {
	icache     *core.ICachePolicy
	cfg        core.Config
	blockShift uint
	ways       int
	pred       []bool
	rec        cache.Recency
	// stats
	deadEvictions uint64
	lruEvictions  uint64
}

// NewGHRPPolicy couples a BTB replacement policy to the I-cache GHRP
// policy. blockBytes is the I-cache block size, needed to find the
// I-cache block containing a branch.
func NewGHRPPolicy(icache *core.ICachePolicy, blockBytes uint64) (*GHRPPolicy, error) {
	if icache == nil {
		return nil, fmt.Errorf("btb: nil I-cache GHRP policy")
	}
	if blockBytes == 0 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("btb: blockBytes %d must be a power of two", blockBytes)
	}
	shift := uint(0)
	for b := blockBytes; b > 1; b >>= 1 {
		shift++
	}
	return &GHRPPolicy{
		icache:     icache,
		cfg:        icache.Predictor().Config(),
		blockShift: shift,
	}, nil
}

// Name implements cache.Policy.
func (p *GHRPPolicy) Name() string { return "GHRP" }

// Attach implements cache.Policy.
func (p *GHRPPolicy) Attach(sets, ways int) {
	p.ways = ways
	p.pred = make([]bool, sets*ways)
	p.rec.Attach(sets, ways)
}

// blockOf maps a branch PC (as delivered in Access.PC) to its containing
// I-cache block number.
func (p *GHRPPolicy) blockOf(a cache.Access) uint64 { return a.PC >> p.blockShift }

// predictDead queries the I-cache metadata for the branch's block. A
// branch whose block is not resident gets a live prediction — a false
// live prediction only delays an eviction, the safe direction (§III-E,
// reason 4).
func (p *GHRPPolicy) predictDead(a cache.Access, threshold int) bool {
	dead, ok := p.icache.BlockPrediction(p.blockOf(a), threshold)
	return ok && dead
}

// OnHit implements cache.Policy: refresh recency and the entry's
// prediction bit from the I-cache GHRP state.
func (p *GHRPPolicy) OnHit(a cache.Access, way int) {
	p.rec.Touch(a.Set, way)
	p.pred[a.Set*p.ways+way] = p.predictDead(a, p.cfg.BTBDeadThreshold)
}

// Victim implements cache.Policy: the least recently used
// predicted-dead entry is evicted, or the LRU entry when none is
// predicted dead (degenerating exactly to LRU).
func (p *GHRPPolicy) Victim(a cache.Access) (int, bool) {
	if p.MayBypass(a) {
		return 0, true
	}
	base := a.Set * p.ways
	deadWay, deadAt := -1, ^uint64(0)
	for w, at := range p.rec.In(a.Set) {
		if p.pred[base+w] && at < deadAt {
			deadWay, deadAt = w, at
		}
	}
	if deadWay >= 0 {
		p.deadEvictions++
		return deadWay, false
	}
	p.lruEvictions++
	return p.rec.LRU(a.Set), false
}

// MayBypass implements cache.Policy: an incoming entry whose block votes
// above the bypass threshold is kept out of the BTB.
func (p *GHRPPolicy) MayBypass(a cache.Access) bool {
	if p.cfg.DisableBypass {
		return false
	}
	return p.predictDead(a, p.cfg.BypassThreshold)
}

// OnBypass implements cache.Policy.
func (p *GHRPPolicy) OnBypass(a cache.Access) {}

// OnInsert implements cache.Policy.
func (p *GHRPPolicy) OnInsert(a cache.Access, way int) {
	p.rec.Touch(a.Set, way)
	p.pred[a.Set*p.ways+way] = p.predictDead(a, p.cfg.BTBDeadThreshold)
}

// OnEvict implements cache.Policy. BTB evictions do not train the shared
// tables; training is the I-cache's responsibility (§III-E).
func (p *GHRPPolicy) OnEvict(a cache.Access, way int, evicted uint64) {}

// Reset implements cache.Policy. The shared I-cache policy is reset by
// its own cache; only BTB-side state clears here.
//
//ghrp:hotpath
func (p *GHRPPolicy) Reset() {
	clear(p.pred)
	p.rec.Reset()
	p.deadEvictions = 0
	p.lruEvictions = 0
}

// EvictionBreakdown reports victims chosen by dead prediction vs LRU.
func (p *GHRPPolicy) EvictionBreakdown() (deadChosen, lruChosen uint64) {
	return p.deadEvictions, p.lruEvictions
}
