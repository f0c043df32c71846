package policies

import "ghrpsim/internal/cache"

// SDBPConfig parameterizes the modified sampling-based dead block
// predictor. Zero values select the paper's modified defaults.
type SDBPConfig struct {
	// TableBits is the log2 size of each of the three skewed prediction
	// tables. Default 12 (4096 entries).
	TableBits int
	// CounterMax is the saturating maximum of each table counter. The
	// paper's modified SDBP uses 8-bit counters (255); the original used
	// 2-bit.
	CounterMax int
	// DeadSum is the summation threshold at or above which the three
	// indexed counters predict a dead block.
	DeadSum int
	// BypassSum is the (higher) summation threshold at or above which an
	// incoming block is bypassed.
	BypassSum int
	// SamplerSets restricts the sampler to the first N sets, emulating
	// the original SDBP's set-sampling. 0 samples every set (the paper's
	// modified SDBP). Fig. 2's point is that instruction streams cannot
	// be set-sampled: a PC maps to exactly one set, so a small sampler
	// never observes most signatures.
	SamplerSets int
}

func (c SDBPConfig) withDefaults() SDBPConfig {
	if c.TableBits == 0 {
		c.TableBits = 12
	}
	if c.CounterMax == 0 {
		c.CounterMax = 255
	}
	if c.DeadSum == 0 {
		c.DeadSum = 36
	}
	if c.BypassSum == 0 {
		c.BypassSum = 192
	}
	return c
}

// samplerEntry mirrors the paper's sampler entry: 1 valid bit, 1
// prediction bit, LRU position, a 12-bit partial-PC signature and a
// 16-bit partial tag.
type samplerEntry struct {
	tag   uint16
	sig   uint16 // 12-bit partial PC
	valid bool
}

// SDBP is the modified Sampling-based Dead Block Prediction policy of
// §IV-A: because a given PC maps to exactly one I-cache/BTB set,
// set-sampling cannot generalize, so the sampler is as large as the cache
// (same sets, same associativity), counters are 8 bits wide, and the
// dead/bypass thresholds are tuned for instruction streams. Predictions
// aggregate the three skewed tables by summation, as in the original
// SDBP.
type SDBP struct {
	cfg    SDBPConfig
	sets   int
	ways   int
	rec    recency // main-cache LRU fallback ordering
	pred   []bool  // per-frame dead prediction bit
	smp    []samplerEntry
	smpRec recency
	tables [3][]int32
	mask   uint32
}

// NewSDBP returns the modified SDBP policy with default parameters.
func NewSDBP() *SDBP { return NewSDBPConfig(SDBPConfig{}) }

// NewSDBPConfig returns a modified SDBP policy with explicit parameters.
func NewSDBPConfig(cfg SDBPConfig) *SDBP {
	cfg = cfg.withDefaults()
	p := &SDBP{cfg: cfg, mask: uint32(1)<<cfg.TableBits - 1}
	for t := range p.tables {
		p.tables[t] = make([]int32, 1<<cfg.TableBits)
	}
	return p
}

// Name implements cache.Policy.
func (p *SDBP) Name() string { return "SDBP" }

// Attach implements cache.Policy.
func (p *SDBP) Attach(sets, ways int) {
	p.sets, p.ways = sets, ways
	p.rec.attach(sets, ways)
	p.pred = make([]bool, sets*ways)
	p.smp = make([]samplerEntry, sets*ways)
	p.smpRec.attach(sets, ways)
}

// signature derives the 12-bit partial-PC trace signature.
func (p *SDBP) signature(pc uint64) uint16 {
	return uint16((pc >> 2) & 0xFFF)
}

// indices computes the three skewed table indices for a signature.
func (p *SDBP) indices(sig uint16) [3]uint32 {
	s := uint32(sig)
	return [3]uint32{
		s & p.mask,
		(s*0x9E37 + 0x79B9) & p.mask,
		(s*0x85EB + 0xCA6B) & p.mask,
	}
}

func (p *SDBP) sum(sig uint16) int {
	idx := p.indices(sig)
	total := 0
	for t := range p.tables {
		total += int(p.tables[t][idx[t]])
	}
	return total
}

func (p *SDBP) train(sig uint16, dead bool) {
	idx := p.indices(sig)
	for t := range p.tables {
		c := p.tables[t][idx[t]]
		if dead {
			if c < int32(p.cfg.CounterMax) {
				p.tables[t][idx[t]] = c + 1
			}
		} else if c > 0 {
			p.tables[t][idx[t]] = c - 1
		}
	}
}

// sampled reports whether the sampler observes accesses to this set.
func (p *SDBP) sampled(set int) bool {
	return p.cfg.SamplerSets == 0 || set < p.cfg.SamplerSets
}

// sample feeds one access through the sampler, training the predictor on
// observed reuse (live) and sampler eviction (dead).
func (p *SDBP) sample(a cache.Access) {
	if !p.sampled(a.Set) {
		return
	}
	base := a.Set * p.ways
	tag := uint16(a.Block & 0xFFFF)
	sig := p.signature(a.PC)
	for w := 0; w < p.ways; w++ {
		e := &p.smp[base+w]
		if e.valid && e.tag == tag {
			// Sampler hit: the previous trace led to reuse.
			p.train(e.sig, false)
			e.sig = sig
			p.smpRec.touch(a.Set, w)
			return
		}
	}
	// Sampler miss: evict the sampler-LRU entry; its trace led to death.
	victim := p.smpRec.lru(a.Set)
	e := &p.smp[base+victim]
	if e.valid {
		p.train(e.sig, true)
	}
	*e = samplerEntry{tag: tag, sig: sig, valid: true}
	p.smpRec.touch(a.Set, victim)
}

// OnHit implements cache.Policy: refresh LRU, re-predict the block's
// deadness with the current access signature, and feed the sampler.
func (p *SDBP) OnHit(a cache.Access, way int) {
	p.sample(a)
	p.rec.touch(a.Set, way)
	p.pred[a.Set*p.ways+way] = p.sum(p.signature(a.PC)) >= p.cfg.DeadSum
}

// Victim implements cache.Policy: prefer a predicted-dead block, then
// LRU; bypass the incoming block if its own prediction clears the bypass
// threshold.
func (p *SDBP) Victim(a cache.Access) (int, bool) {
	if p.MayBypass(a) {
		return 0, true
	}
	// Among predicted-dead blocks evict the least recently used, so the
	// policy degenerates to LRU when everything is predicted dead.
	base := a.Set * p.ways
	deadWay := -1
	var deadAt uint64
	for w := 0; w < p.ways; w++ {
		if p.pred[base+w] {
			at := p.rec.last[base+w]
			if deadWay < 0 || at < deadAt {
				deadWay, deadAt = w, at
			}
		}
	}
	if deadWay >= 0 {
		return deadWay, false
	}
	return p.rec.lru(a.Set), false
}

// MayBypass implements cache.Policy.
func (p *SDBP) MayBypass(a cache.Access) bool {
	return p.sum(p.signature(a.PC)) >= p.cfg.BypassSum
}

// OnBypass implements cache.Policy: the bypassed access still trains the
// sampler so the predictor keeps learning about the trace.
func (p *SDBP) OnBypass(a cache.Access) { p.sample(a) }

// OnInsert implements cache.Policy.
func (p *SDBP) OnInsert(a cache.Access, way int) {
	p.sample(a)
	p.rec.touch(a.Set, way)
	p.pred[a.Set*p.ways+way] = p.sum(p.signature(a.PC)) >= p.cfg.DeadSum
}

// OnEvict implements cache.Policy. Training on real-cache evictions is
// the sampler's job; nothing to do here.
func (p *SDBP) OnEvict(a cache.Access, way int, evicted uint64) {}

// Reset implements cache.Policy.
//
//ghrp:hotpath
func (p *SDBP) Reset() {
	p.rec.reset()
	p.smpRec.reset()
	clear(p.pred)
	clear(p.smp)
	for t := range p.tables {
		clear(p.tables[t])
	}
}

// PredictDead reports the current aggregate prediction for an access
// signature; exposed for tests and analysis tools.
func (p *SDBP) PredictDead(pc uint64) bool {
	return p.sum(p.signature(pc)) >= p.cfg.DeadSum
}
