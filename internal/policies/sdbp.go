package policies

import (
	"fmt"

	"ghrpsim/internal/cache"
)

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

// Validate reports configurations that cannot be instantiated. Zero
// fields take their defaults first. Counters are one byte each, so
// CounterMax must lie in [1,255]. BypassSum has no upper bound: a sum
// the three tables can never reach turns bypass off.
func (c SDBPConfig) Validate() error {
	c = c.withDefaults()
	if c.TableBits < 1 || c.TableBits > 24 {
		return fmt.Errorf("policies: SDBP TableBits %d out of range [1,24]", c.TableBits)
	}
	if c.CounterMax < 1 || c.CounterMax > 255 {
		return fmt.Errorf("policies: SDBP CounterMax %d out of range [1,255]", c.CounterMax)
	}
	if c.DeadSum < 0 {
		return fmt.Errorf("policies: negative SDBP DeadSum %d", c.DeadSum)
	}
	if c.BypassSum < 0 {
		return fmt.Errorf("policies: negative SDBP BypassSum %d", c.BypassSum)
	}
	if c.SamplerSets < 0 {
		return fmt.Errorf("policies: negative SDBP SamplerSets %d", c.SamplerSets)
	}
	return nil
}

// SDBP is the modified Sampling-based Dead Block Prediction policy of
// §IV-A: because a given PC maps to exactly one I-cache/BTB set,
// set-sampling cannot generalize, so the sampler is as large as the cache
// (same sets, same associativity), counters are 8 bits wide, and the
// dead/bypass thresholds are tuned for instruction streams. Predictions
// aggregate the three skewed tables by summation, as in the original
// SDBP.
//
// The sampler mirrors the paper's entry — 1 valid bit, LRU position, a
// 12-bit partial-PC signature and a 16-bit partial tag — with the valid
// bits kept per set. Sampler entries only ever become valid (Reset
// aside), and a miss fills the lowest empty way, so each set's valid
// entries are a prefix of its ways whose length the set keeps. A set
// never holds one tag twice, so the lookup may try the set's most
// recently used way before scanning: instruction streams come back to
// it for most sampler hits, and a match there is the one the scan would
// find.
type SDBP struct {
	cfg     SDBPConfig
	sets    int
	ways    int
	rec     cache.Recency // main-cache LRU fallback ordering
	pred    []bool        // per-frame dead prediction bit
	smp     []smpEntry
	smpSets []smpSet
	smpRec  cache.Recency
	// tables holds the three counter tables in one byte slab,
	// table-major: table t's entry i lives at t<<TableBits | i.
	// Validate keeps CounterMax within a byte.
	tables []uint8
	mask   uint32
	// table1 and table2 are the slab offsets of the second and third
	// tables.
	table1, table2 uint32
}

// smpEntry is one sampler entry: a 16-bit partial tag and the 12-bit
// partial-PC signature of the entry's latest access, read together.
type smpEntry struct{ tag, sig uint16 }

// smpSet is one sampler set's bookkeeping: how many of its entries are
// valid (ways [0, fill)) and its most recently used way.
type smpSet struct{ fill, mru uint8 }

// NewSDBPConfig returns a modified SDBP policy with explicit parameters.
// It panics on a configuration Validate rejects, so validate first when
// the configuration is user-supplied.
func NewSDBPConfig(cfg SDBPConfig) *SDBP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	p := &SDBP{cfg: cfg, mask: uint32(1)<<cfg.TableBits - 1, table1: 1 << cfg.TableBits, table2: 2 << cfg.TableBits}
	p.tables = make([]uint8, 3<<cfg.TableBits)
	return p
}

// Name implements cache.Policy.
func (p *SDBP) Name() string { return "SDBP" }

// Attach implements cache.Policy.
func (p *SDBP) Attach(sets, ways int) {
	p.sets, p.ways = sets, ways
	p.rec.Attach(sets, ways)
	p.pred = make([]bool, sets*ways)
	p.smp = make([]smpEntry, sets*ways)
	p.smpSets = make([]smpSet, sets)
	p.smpRec.Attach(sets, ways)
}

// signature derives the 12-bit partial-PC trace signature.
func (p *SDBP) signature(pc uint64) uint16 {
	return uint16((pc >> 2) & 0xFFF)
}

// offsets returns a signature's counter offsets in the slab, one per
// skewed table. They come back as scalars: a [3]uint32 built with 4-byte
// stores and copied with 8-byte loads stalls store forwarding.
func (p *SDBP) offsets(sig uint16) (o0, o1, o2 uint32) {
	s := uint32(sig)
	return s & p.mask,
		p.table1 | (s*0x9E37+0x79B9)&p.mask,
		p.table2 | (s*0x85EB+0xCA6B)&p.mask
}

// sum adds sig's three counters.
func (p *SDBP) sum(sig uint16) int {
	o0, o1, o2 := p.offsets(sig)
	return int(p.tables[o0]) + int(p.tables[o1]) + int(p.tables[o2])
}

// train steps sig's three counters toward dead (saturating at
// CounterMax) or live (flooring at 0).
func (p *SDBP) train(sig uint16, dead bool) {
	o0, o1, o2 := p.offsets(sig)
	t := p.tables
	if dead {
		m := p.cfg.CounterMax
		t[o0], t[o1], t[o2] = up(t[o0], m), up(t[o1], m), up(t[o2], m)
		return
	}
	t[o0], t[o1], t[o2] = down(t[o0]), down(t[o1]), down(t[o2])
}

// up and down step a counter toward max or 0 by the sign of its
// distance to the bound, so a saturated counter stays put without a
// branch.
func up(c uint8, max int) uint8 { return c + uint8((int(c)-max)>>63&1) }

func down(c uint8) uint8 { return c - uint8(-int(c)>>63&1) }

// observe feeds one access with signature sig through the sampler,
// training the predictor on observed reuse (live) and sampler eviction
// (dead), and returns sig's counter sum after that training. Only the
// first SamplerSets sets are sampled when SamplerSets is set.
func (p *SDBP) observe(a cache.Access, sig uint16) int {
	if p.cfg.SamplerSets != 0 && a.Set >= p.cfg.SamplerSets {
		return p.sum(sig)
	}
	base := a.Set * p.ways
	tag := uint16(a.Block)
	// Try the set's most recently used way first. Touching it again
	// would not change the set's LRU order, so a hit there skips that.
	set := &p.smpSets[a.Set]
	w := int(set.mru)
	if w >= int(set.fill) || p.smp[base+w].tag != tag {
		if w = p.lookup(base, int(set.fill), tag); w < 0 {
			return p.smpMiss(a, set, sig, base, tag)
		}
		p.smpRec.Touch(a.Set, w)
		set.mru = uint8(w)
	}
	// Sampler hit: the previous trace led to reuse.
	e := &p.smp[base+w]
	old := e.sig
	e.sig = sig
	if old == sig {
		return p.reuse(sig)
	}
	p.train(old, false)
	return p.sum(sig)
}

// lookup returns the sampler way in [base, base+fill) holding tag, or
// -1.
func (p *SDBP) lookup(base, fill int, tag uint16) int {
	for w, e := range p.smp[base : base+fill] {
		if e.tag == tag {
			return w
		}
	}
	return -1
}

// smpMiss installs tag in the sampler, filling the lowest empty way,
// the one the sampler's LRU order puts first, or evicting the
// sampler-LRU entry, whose trace led to death. It returns sig's counter
// sum after the training.
func (p *SDBP) smpMiss(a cache.Access, set *smpSet, sig uint16, base int, tag uint16) int {
	victim := int(set.fill)
	if victim < p.ways {
		set.fill++
	} else {
		victim = p.smpRec.LRU(a.Set)
		p.train(p.smp[base+victim].sig, true)
	}
	p.smp[base+victim] = smpEntry{tag: tag, sig: sig}
	p.smpRec.Touch(a.Set, victim)
	set.mru = uint8(victim)
	return p.sum(sig)
}

// reuse trains sig live and returns its counter sum afterwards, in one
// pass over its three counters: a sampler hit's usual case, where the
// entry's previous trace is the current one.
func (p *SDBP) reuse(sig uint16) int {
	o0, o1, o2 := p.offsets(sig)
	t := p.tables
	c0, c1, c2 := down(t[o0]), down(t[o1]), down(t[o2])
	t[o0], t[o1], t[o2] = c0, c1, c2
	return int(c0) + int(c1) + int(c2)
}

// OnHit implements cache.Policy: refresh LRU, feed the sampler, and
// re-predict the block's deadness with the current access signature.
func (p *SDBP) OnHit(a cache.Access, way int) {
	p.rec.Touch(a.Set, way)
	p.pred[a.Set*p.ways+way] = p.observe(a, p.signature(a.PC)) >= p.cfg.DeadSum
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
	last := p.rec.In(a.Set)
	deadWay := -1
	var deadAt uint64
	for w := 0; w < p.ways; w++ {
		if p.pred[base+w] {
			at := last[w]
			if deadWay < 0 || at < deadAt {
				deadWay, deadAt = w, at
			}
		}
	}
	if deadWay >= 0 {
		return deadWay, false
	}
	return p.rec.LRU(a.Set), false
}

// MayBypass implements cache.Policy.
func (p *SDBP) MayBypass(a cache.Access) bool {
	return p.sum(p.signature(a.PC)) >= p.cfg.BypassSum
}

// OnBypass implements cache.Policy: the bypassed access still trains the
// sampler so the predictor keeps learning about the trace.
func (p *SDBP) OnBypass(a cache.Access) { p.observe(a, p.signature(a.PC)) }

// OnInsert implements cache.Policy.
func (p *SDBP) OnInsert(a cache.Access, way int) {
	p.rec.Touch(a.Set, way)
	p.pred[a.Set*p.ways+way] = p.observe(a, p.signature(a.PC)) >= p.cfg.DeadSum
}

// OnEvict implements cache.Policy. Training on real-cache evictions is
// the sampler's job; nothing to do here.
func (p *SDBP) OnEvict(a cache.Access, way int, evicted uint64) {}

// Reset implements cache.Policy.
//
//ghrp:hotpath
func (p *SDBP) Reset() {
	p.rec.Reset()
	p.smpRec.Reset()
	clear(p.pred)
	clear(p.smp)
	clear(p.smpSets)
	clear(p.tables)
}

// PredictDead reports the current aggregate prediction for an access
// signature; exposed for tests and analysis tools.
func (p *SDBP) PredictDead(pc uint64) bool {
	return p.sum(p.signature(pc)) >= p.cfg.DeadSum
}
