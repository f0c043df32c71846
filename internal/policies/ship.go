package policies

import "ghrpsim/internal/cache"

// SHiPConfig parameterizes the SHiP policy. Zero values select defaults
// analogous to Wu et al. (MICRO 2011), adapted for instruction streams
// the same way SDBP is: the paper (§II-A) names SHiP alongside SDBP as a
// PC-based scheme whose set-sampling cannot generalize for the I-cache,
// so the sampler here observes every set.
type SHiPConfig struct {
	// CounterBits is the width of the Signature History Counter Table
	// counters. Default 3 (0..7).
	CounterBits int
	// TableBits is the log2 size of the SHCT. Default 14 (16K entries).
	TableBits int
	// RRPVBits is the re-reference prediction value width. Default 2.
	RRPVBits int
	// SamplerSets restricts SHCT training to the first N sets (the
	// original set-sampled SHiP); 0 trains on every set.
	SamplerSets int
}

func (c SHiPConfig) withDefaults() SHiPConfig {
	if c.CounterBits == 0 {
		c.CounterBits = 3
	}
	if c.TableBits == 0 {
		c.TableBits = 14
	}
	if c.RRPVBits == 0 {
		c.RRPVBits = 2
	}
	return c
}

// shipMeta is SHiP's per-block bookkeeping: the signature that inserted
// the block and whether it has been re-referenced since insertion.
type shipMeta struct {
	sig     uint32
	outcome bool // re-referenced this generation
	valid   bool
}

// SHiP implements Signature-based Hit Prediction: an SRRIP cache whose
// insertion RRPV is chosen per signature. The Signature History Counter
// Table (SHCT) counts, per PC signature, whether blocks inserted by that
// signature were re-referenced before eviction; signatures whose counter
// is zero insert at the distant RRPV (likely dead), all others insert at
// the long RRPV.
type SHiP struct {
	noBypass
	cfg   SHiPConfig
	ways  int
	max   uint8 // distant RRPV
	long  uint8
	rrpv  []uint8
	meta  []shipMeta
	shct  []uint8
	cmax  uint8
	smask uint32
}

// NewSHiP returns a SHiP policy with default parameters.
func NewSHiP() *SHiP { return NewSHiPConfig(SHiPConfig{}) }

// NewSHiPConfig returns a SHiP policy with explicit parameters.
func NewSHiPConfig(cfg SHiPConfig) *SHiP {
	cfg = cfg.withDefaults()
	max := uint8(1)<<cfg.RRPVBits - 1
	return &SHiP{
		cfg:   cfg,
		max:   max,
		long:  max - 1,
		shct:  make([]uint8, 1<<cfg.TableBits),
		cmax:  uint8(1)<<cfg.CounterBits - 1,
		smask: uint32(1)<<cfg.TableBits - 1,
	}
}

// Name implements cache.Policy.
func (p *SHiP) Name() string { return "SHiP" }

// Attach implements cache.Policy.
func (p *SHiP) Attach(sets, ways int) {
	p.ways = ways
	p.rrpv = make([]uint8, sets*ways)
	for i := range p.rrpv {
		p.rrpv[i] = p.max
	}
	p.meta = make([]shipMeta, sets*ways)
}

// signature hashes the accessing PC into an SHCT index.
func (p *SHiP) signature(pc uint64) uint32 {
	h := uint32(pc>>2) * 0x9E3779B1
	h ^= h >> 15
	return h & p.smask
}

func (p *SHiP) sampled(set int) bool {
	return p.cfg.SamplerSets == 0 || set < p.cfg.SamplerSets
}

// OnHit implements cache.Policy: promote to RRPV 0 and record the
// re-reference; the first hit of a generation increments the inserting
// signature's counter.
func (p *SHiP) OnHit(a cache.Access, way int) {
	i := a.Set*p.ways + way
	p.rrpv[i] = 0
	m := &p.meta[i]
	if m.valid && !m.outcome {
		m.outcome = true
		if p.sampled(a.Set) && p.shct[m.sig] < p.cmax {
			p.shct[m.sig]++
		}
	}
}

// Victim implements cache.Policy: standard SRRIP victim search with
// aging.
func (p *SHiP) Victim(a cache.Access) (int, bool) {
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

// OnInsert implements cache.Policy: insertion RRPV depends on the
// signature's history — never-reused signatures insert at the distant
// value.
func (p *SHiP) OnInsert(a cache.Access, way int) {
	i := a.Set*p.ways + way
	sig := p.signature(a.PC)
	if p.shct[sig] == 0 {
		p.rrpv[i] = p.max
	} else {
		p.rrpv[i] = p.long
	}
	p.meta[i] = shipMeta{sig: sig, valid: true}
}

// OnEvict implements cache.Policy: a generation that ended without any
// re-reference decrements the inserting signature's counter.
func (p *SHiP) OnEvict(a cache.Access, way int, evicted uint64) {
	m := &p.meta[a.Set*p.ways+way]
	if m.valid && !m.outcome && p.sampled(a.Set) && p.shct[m.sig] > 0 {
		p.shct[m.sig]--
	}
}

// Reset implements cache.Policy.
//
//ghrp:hotpath
func (p *SHiP) Reset() {
	for i := range p.rrpv {
		p.rrpv[i] = p.max
	}
	clear(p.meta)
	clear(p.shct)
}

// SHCTCounter exposes a signature's counter for tests and diagnostics.
func (p *SHiP) SHCTCounter(pc uint64) uint8 { return p.shct[p.signature(pc)] }
